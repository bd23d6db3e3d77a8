package main

import (
	"reflect"
	"testing"
)

func TestParseGroups(t *testing.T) {
	cases := []struct {
		in   string
		want [][]string
	}{
		{"a,b,c", [][]string{{"a", "b", "c"}}},
		{"a,b;c,d", [][]string{{"a", "b"}, {"c", "d"}}},
		{" a , b ;\tc ", [][]string{{"a", "b"}, {"c"}}},
		{"a,,b;;c;", [][]string{{"a", "b"}, {"c"}}},
		{"", nil},
	}
	for _, c := range cases {
		if got := parseGroups(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseGroups(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}
