package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseVetLine(t *testing.T) {
	names := map[string]bool{"errflow": true, "locksafe": true}
	cases := []struct {
		line string
		ok   bool
		want finding
	}{
		{
			line: "internal/fleet/fleet.go:456:2: errflow: error from Close is discarded",
			ok:   true,
			want: finding{File: "internal/fleet/fleet.go", Line: 456, Col: 2, Analyzer: "errflow", Message: "error from Close is discarded"},
		},
		{
			line: "/abs/path/x.go:1:1: locksafe: channel send while mu is held",
			ok:   true,
			want: finding{File: "/abs/path/x.go", Line: 1, Col: 1, Analyzer: "locksafe", Message: "channel send while mu is held"},
		},
		{line: "# directload/internal/fleet", ok: false},
		{line: "exit status 2", ok: false},
		{line: "internal/fleet/fleet.go:456:2: printf: not in our suite", ok: false},
		{line: "", ok: false},
	}
	for _, c := range cases {
		got, ok := parseVetLine(c.line, names)
		if ok != c.ok {
			t.Errorf("parseVetLine(%q): ok=%v, want %v", c.line, ok, c.ok)
			continue
		}
		if ok && got != c.want {
			t.Errorf("parseVetLine(%q) = %+v, want %+v", c.line, got, c.want)
		}
	}
}

func TestSarifReport(t *testing.T) {
	fs := []finding{
		{File: "a.go", Line: 3, Col: 7, Analyzer: "locksafe", Message: "channel send while mu is held"},
	}
	data, err := json.Marshal(sarifReport(fs))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name    string `json:"name"`
					Version string `json:"version"`
					Rules   []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Message   struct{ Text string }
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("unmarshal round trip: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("bad log shell: version=%q runs=%d", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "directload-vet" || run.Tool.Driver.Version != toolVersion {
		t.Errorf("driver = %s %s", run.Tool.Driver.Name, run.Tool.Driver.Version)
	}
	if len(run.Tool.Driver.Rules) != len(suite) {
		t.Errorf("rules: %d, want one per analyzer (%d)", len(run.Tool.Driver.Rules), len(suite))
	}
	if len(run.Results) != 1 {
		t.Fatalf("results: %d, want 1", len(run.Results))
	}
	r := run.Results[0]
	if r.RuleID != "locksafe" || r.Locations[0].PhysicalLocation.ArtifactLocation.URI != "a.go" ||
		r.Locations[0].PhysicalLocation.Region.StartLine != 3 {
		t.Errorf("bad result: %+v", r)
	}
}

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

func TestAuditIgnores(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("good.go", "package p\n\n//lint:ignore locksafe send on a buffered channel sized to the senders\nvar x int\n")
	write("sub/clean.go", "package q\nvar y int\n")
	write("testdata/src/fix/fix.go", "package fix\n//lint:ignore errflow fixture directive must not be audited\n")

	var out, errw bytes.Buffer
	if code := run([]string{"-audit-ignores", dir}, &out, &errw); code != 0 {
		t.Fatalf("audit of reasoned tree: exit %d, stderr %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "locksafe — send on a buffered channel sized to the senders") {
		t.Errorf("audit output missing the directive: %s", out.String())
	}
	if strings.Contains(out.String(), "fixture directive") {
		t.Errorf("audit descended into testdata: %s", out.String())
	}

	write("bad.go", "package p\n\n//lint:ignore ctxflow\nvar z int\n")
	out.Reset()
	errw.Reset()
	if code := run([]string{"-audit-ignores", dir}, &out, &errw); code == 0 {
		t.Fatalf("audit passed with a reasonless directive:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "no reason") {
		t.Errorf("audit output does not call out the reasonless directive: %s", out.String())
	}
}
