package main

import (
	"bytes"
	"testing"
)

func TestVersionHandshake(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-V=full"}, &out, &errw); code != 0 {
		t.Fatalf("-V=full: exit %d, stderr %s", code, errw.String())
	}
	want := "directload-vet version " + toolVersion + "\n"
	if out.String() != want {
		t.Errorf("-V=full printed %q, want %q", out.String(), want)
	}
}
