// Package analysis is a minimal, dependency-free reimplementation of
// the golang.org/x/tools/go/analysis vocabulary, just large enough to
// host directload's repo-specific analyzers (cmd/directload-vet).
//
// The real go/analysis module is not vendored here, so the framework
// re-creates the three pieces the analyzers need:
//
//   - Analyzer / Pass / Diagnostic, the unit-of-work API;
//   - a driver speaking the `go vet -vettool` protocol (see unit.go),
//     so `go vet -vettool=$(directload-vet)` runs the suite with the
//     go command's package loading, export data and caching;
//   - a source-mode loader (load.go) used by the analyzers' fixture
//     tests (internal/analysis/analysistest).
//
// Suppressions: a finding may be silenced with a comment in the style
// of staticcheck's lint directives, either on the flagged line or the
// line directly above it:
//
//	//lint:ignore <analyzer>[,<analyzer>...] reason
//
// The reason is mandatory; a bare directive does not suppress. The
// analyzer name "all" matches every analyzer in the suite.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore directives. It must be a valid flag name.
	Name string
	// Doc is the one-line summary shown by directload-vet -list.
	Doc string
	// Run applies the check to one package, reporting findings
	// through pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one package's syntax and type information to an
// analyzer, mirroring go/analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, msg string) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  msg,
	})
}

// Reportf records a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(pos, fmt.Sprintf(format, args...))
}

// Package bundles a loaded, type-checked package ready for analysis.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Run applies each analyzer to pkg and returns the surviving findings
// (suppressed ones removed) sorted by position.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Pkg,
			TypesInfo: pkg.Info,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %v", a.Name, err)
		}
	}
	diags = filterIgnored(pkg, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	// An analyzer revisiting shared syntax (e.g. an if statement inside
	// nested loops) may report the same finding twice; keep one.
	deduped := diags[:0]
	for i, d := range diags {
		if i > 0 && d == diags[i-1] {
			continue
		}
		deduped = append(deduped, d)
	}
	return deduped, nil
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	file      string
	line      int // line the directive is written on
	analyzers []string
}

// matches reports whether the directive silences analyzer findings on
// the given line (the directive's own line or the one below it).
func (d ignoreDirective) matches(analyzer string, file string, line int) bool {
	if d.file != file || (line != d.line && line != d.line+1) {
		return false
	}
	for _, a := range d.analyzers {
		if a == analyzer || a == "all" {
			return true
		}
	}
	return false
}

// parseIgnoreDirectives extracts //lint:ignore directives from a file.
func parseIgnoreDirectives(fset *token.FileSet, f *ast.File) []ignoreDirective {
	var out []ignoreDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, "lint:ignore ") {
				continue
			}
			fields := strings.Fields(strings.TrimPrefix(text, "lint:ignore "))
			if len(fields) < 2 {
				continue // no reason given: directive is inert
			}
			pos := fset.Position(c.Pos())
			out = append(out, ignoreDirective{
				file:      pos.Filename,
				line:      pos.Line,
				analyzers: strings.Split(fields[0], ","),
			})
		}
	}
	return out
}

// filterIgnored drops findings silenced by //lint:ignore directives.
func filterIgnored(pkg *Package, diags []Diagnostic) []Diagnostic {
	var directives []ignoreDirective
	for _, f := range pkg.Files {
		directives = append(directives, parseIgnoreDirectives(pkg.Fset, f)...)
	}
	if len(directives) == 0 {
		return diags
	}
	kept := diags[:0]
	for _, d := range diags {
		suppressed := false
		for _, dir := range directives {
			if dir.matches(d.Analyzer, d.Pos.Filename, d.Pos.Line) {
				suppressed = true
				break
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	return kept
}
