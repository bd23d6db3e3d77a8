package main

import (
	"flag"
	"reflect"
	"strings"
	"testing"
)

// TestFlagSet pins the exact set of flags `qindbd -h` lists, so a knob
// cannot reappear unnoticed: a new one needs two callers that set
// different values (the benchmark and the docs pass only these).
func TestFlagSet(t *testing.T) {
	want := []string{
		"addr", "aof", "attr-sample", "capacity", "checkpoint", "gc",
		"metrics-addr", "pprof", "resp-addr", "slo-read-target",
		"slowlog-threshold",
	}
	var got []string
	flag.VisitAll(func(f *flag.Flag) { // lexical order
		if !strings.HasPrefix(f.Name, "test.") {
			got = append(got, f.Name)
		}
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("qindbd flags = %v\nwant         %v", got, want)
	}
}
