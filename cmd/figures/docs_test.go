package main

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// quoteFence opens a block that quotes a golden: ```seed1 names
// testdata/seed1.golden. A fence indented inside a list item indents
// its block's lines and its closing fence the same.
var quoteFence = regexp.MustCompile("^( *)```(seed[0-9]+)$")

// TestDocsQuoteGoldens fails unless every block of EXPERIMENTS.md and
// README.md fenced as ```seedN is a run of whole, consecutive lines of
// testdata/seedN.golden. `make figures` pins each golden to this
// program's output, so the two checks together pin the docs' measured
// numbers to it.
func TestDocsQuoteGoldens(t *testing.T) {
	goldens := map[string]string{}
	for _, doc := range []string{"../../EXPERIMENTS.md", "../../README.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(raw), "\n")
		blocks := 0
		for i := 0; i < len(lines); i++ {
			m := quoteFence.FindStringSubmatch(lines[i])
			if m == nil {
				continue
			}
			indent, tag := m[1], m[2]
			var quoted []string
			end := i + 1
			for ; end < len(lines) && lines[end] != indent+"```"; end++ {
				quoted = append(quoted, strings.TrimPrefix(lines[end], indent))
			}
			if end == len(lines) {
				t.Fatalf("%s:%d: the %s block is not closed", doc, i+1, tag)
			}
			golden, ok := goldens[tag]
			if !ok {
				g, err := os.ReadFile("testdata/" + tag + ".golden")
				if err != nil {
					t.Fatalf("%s:%d: %v", doc, i+1, err)
				}
				golden = "\n" + string(g)
				goldens[tag] = golden
			}
			if len(quoted) == 0 || !strings.Contains(golden, "\n"+strings.Join(quoted, "\n")+"\n") {
				t.Errorf("%s:%d: the %s block is not a run of lines of testdata/%s.golden", doc, i+1, tag, tag)
				for j, line := range quoted {
					if !strings.Contains(golden, "\n"+line+"\n") {
						t.Errorf("%s:%d: %q is no line of it", doc, i+2+j, line)
						break
					}
				}
			}
			blocks++
			i = end
		}
		if blocks == 0 {
			t.Errorf("%s quotes no golden", doc)
		}
		t.Logf("%s: %d quoted blocks", doc, blocks)
	}
}
