package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader type-checks packages from source. Test fixtures live in a
// GOPATH-style tree (root/src/<importpath>/*.go); imports that resolve
// inside the tree are loaded recursively, everything else falls back
// to the standard library via the compiler's source importer.
type Loader struct {
	Root string // directory containing src/
	Fset *token.FileSet

	std    types.ImporterFrom
	loaded map[string]*Package
}

// NewLoader creates a loader rooted at root (fixtures under root/src).
func NewLoader(root string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Root:   root,
		Fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		loaded: make(map[string]*Package),
	}
}

// Load parses and type-checks the fixture package at importPath.
func (l *Loader) Load(importPath string) (*Package, error) {
	if pkg, ok := l.loaded[importPath]; ok {
		return pkg, nil
	}
	dir := filepath.Join(l.Root, "src", filepath.FromSlash(importPath))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := NewInfo()
	conf := types.Config{Importer: (*loaderImporter)(l)}
	pkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, err
	}
	loaded := &Package{Fset: l.Fset, Files: files, Pkg: pkg, Info: info}
	l.loaded[importPath] = loaded
	return loaded, nil
}

// loaderImporter routes fixture-local imports to the loader and
// everything else to the source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if _, err := os.Stat(filepath.Join(l.Root, "src", filepath.FromSlash(path))); err == nil {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Pkg, nil
	}
	return l.std.Import(path)
}

// NewInfo allocates the types.Info with every map the analyzers read.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}
