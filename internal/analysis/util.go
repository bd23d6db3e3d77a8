package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// PkgPathMatches reports whether a package path refers to one of
// directload's packages named by its last element(s). It accepts both
// the real module path ("directload/internal/metrics") and the bare
// fixture path the analyzer tests use ("metrics"), so the same
// analyzer logic runs unchanged against testdata packages.
func PkgPathMatches(path, name string) bool {
	return path == name ||
		path == "directload/internal/"+name ||
		strings.HasSuffix(path, "/internal/"+name)
}

// IsNamed reports whether t (after stripping pointers and aliases) is
// the named type pkgName.typeName, where pkgName is matched with
// PkgPathMatches for directload packages or compared exactly for
// standard-library paths.
func IsNamed(t types.Type, pkgPath, typeName string) bool {
	t = Deref(t)
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != typeName || obj.Pkg() == nil {
		return false
	}
	p := obj.Pkg().Path()
	return p == pkgPath || PkgPathMatches(p, pkgPath)
}

// Deref strips aliases and one level of pointer.
func Deref(t types.Type) types.Type {
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	return t
}

// IsContextType reports whether t is context.Context.
func IsContextType(t types.Type) bool {
	t = types.Unalias(t)
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// CalleeFunc resolves the *types.Func a call expression invokes, or
// nil for calls through function values, built-ins and conversions.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fn]
	case *ast.SelectorExpr:
		obj = info.Uses[fn.Sel]
	}
	f, _ := obj.(*types.Func)
	return f
}

// IsPkgCall reports whether call invokes the package-level function
// pkgPath.name (e.g. context.Background).
func IsPkgCall(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	f := CalleeFunc(info, call)
	if f == nil || f.Name() != name || f.Pkg() == nil {
		return false
	}
	if f.Type().(*types.Signature).Recv() != nil {
		return false
	}
	return f.Pkg().Path() == pkgPath
}

// ExprString renders a stable key for an expression, used to identify
// "the same mutex" across Lock/Unlock pairs. It handles the ident and
// selector chains mutexes are held in; anything else renders
// positionally unique and so never pairs up (conservatively).
func ExprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return ExprString(e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return "*" + ExprString(e.X)
	case *ast.IndexExpr:
		return ExprString(e.X) + "[...]"
	}
	return "?"
}

// IsTestFile reports whether the file a node belongs to is a _test.go
// file (several analyzers skip test code).
func IsTestFile(pass *Pass, n ast.Node) bool {
	f := pass.Fset.File(n.Pos())
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}
