// Package analysistest runs an analyzer over fixture packages and
// checks its findings against `// want` comments, in the style of
// golang.org/x/tools/go/analysis/analysistest.
//
// Fixtures live under <testdata>/src/<pkg>/*.go. A line expecting a
// finding carries a trailing comment:
//
//	conn.Close() // want `dropped error`
//
// The backquoted string is a regular expression that must match the
// message of a finding reported on that line. Lines with no want
// comment must produce no findings. A line may carry several want
// patterns separated by ` want `; each must match a distinct finding.
package analysistest

import (
	"fmt"
	"go/token"
	"regexp"
	"strings"
	"testing"

	"directload/internal/analysis"
)

var wantRe = regexp.MustCompile("// want (`[^`]*`|\"[^\"]*\")((?: `[^`]*`| \"[^\"]*\")*)")

// Run loads each fixture package and verifies the analyzer's findings
// match the fixtures' want comments exactly.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	loader := analysis.NewLoader(testdata)
	for _, pkgPath := range pkgs {
		pkg, err := loader.Load(pkgPath)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", pkgPath, err)
		}
		diags, err := analysis.Run(pkg, []*analysis.Analyzer{a})
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, pkgPath, err)
		}
		checkWants(t, loader.Fset, pkg, diags)
	}
}

type wantKey struct {
	file string
	line int
}

// collectWants parses want comments out of the fixture sources.
func collectWants(t *testing.T, fset *token.FileSet, pkg *analysis.Package) map[wantKey][]*regexp.Regexp {
	t.Helper()
	wants := make(map[wantKey][]*regexp.Regexp)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					if strings.Contains(c.Text, "want ") && strings.Contains(c.Text, "`") {
						t.Fatalf("%s: malformed want comment: %s", fset.Position(c.Pos()), c.Text)
					}
					continue
				}
				pos := fset.Position(c.Pos())
				key := wantKey{pos.Filename, pos.Line}
				for _, pat := range append([]string{m[1]}, strings.Fields(m[2])...) {
					pat = strings.Trim(pat, "`\"")
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					wants[key] = append(wants[key], re)
				}
			}
		}
	}
	return wants
}

func checkWants(t *testing.T, fset *token.FileSet, pkg *analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	wants := collectWants(t, fset, pkg)
	matched := make(map[wantKey][]bool)
	for _, d := range diags {
		key := wantKey{d.Pos.Filename, d.Pos.Line}
		pats := wants[key]
		if matched[key] == nil {
			matched[key] = make([]bool, len(pats))
		}
		found := false
		for i, re := range pats {
			if !matched[key][i] && re.MatchString(d.Message) {
				matched[key][i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected finding at %s: %s", posString(d), d.Message)
		}
	}
	for key, pats := range wants {
		for i, re := range pats {
			if matched[key] == nil || !matched[key][i] {
				t.Errorf("%s:%d: expected finding matching %q, got none", key.file, key.line, re)
			}
		}
	}
}

func posString(d analysis.Diagnostic) string {
	return fmt.Sprintf("%s:%d:%d", d.Pos.Filename, d.Pos.Line, d.Pos.Column)
}
