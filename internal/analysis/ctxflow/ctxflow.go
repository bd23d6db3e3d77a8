// Package ctxflow keeps a caller's deadline and cancellation in force:
// a request's context.Context must thread unbroken through fleet→wire,
// because a fresh root silently drops the deadline and the cancellation
// the caller set (a publish's batch flushes, a hedged read's losers).
//
// Two rules, applied to library code (package main and _test.go files
// are exempt — binaries and tests legitimately mint root contexts):
//
//  1. A function with a context.Context parameter in (lexical) scope
//     must not mint a fresh root via context.Background() or
//     context.TODO(): doing so drops the caller's deadline.
//  2. An exported function whose signature takes a context.Context
//     must actually use it. A ctx accepted and then dropped while the
//     body calls context-accepting callees breaks the thread silently.
package ctxflow

import (
	"go/ast"
	"go/types"

	"directload/internal/analysis"
)

// Analyzer is the ctxflow check.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "forbid fresh context roots and dropped ctx params in library code",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || analysis.IsTestFile(pass, fd) {
				continue
			}
			params := ctxParams(pass, fd.Type)
			checkFreshRoots(pass, fd.Body, len(params) > 0)
			if fd.Name.IsExported() {
				checkDroppedCtx(pass, fd, params)
			}
		}
	}
	return nil
}

// ctxParams returns the named context.Context parameter objects of a
// function type.
func ctxParams(pass *analysis.Pass, ft *ast.FuncType) []types.Object {
	var out []types.Object
	if ft.Params == nil {
		return nil
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			obj := pass.TypesInfo.Defs[name]
			if obj != nil && analysis.IsContextType(obj.Type()) {
				out = append(out, obj)
			}
		}
	}
	return out
}

// checkFreshRoots walks a function body flagging context.Background()
// and context.TODO() calls made while a ctx parameter is in scope.
// Nested function literals inherit the enclosing scope; a literal that
// declares its own ctx parameter brings one into scope itself.
func checkFreshRoots(pass *analysis.Pass, body *ast.BlockStmt, ctxInScope bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkFreshRoots(pass, n.Body, ctxInScope || len(ctxParams(pass, n.Type)) > 0)
			return false
		case *ast.CallExpr:
			if !ctxInScope {
				return true
			}
			for _, name := range [...]string{"Background", "TODO"} {
				if analysis.IsPkgCall(pass.TypesInfo, n, "context", name) {
					pass.Reportf(n.Pos(),
						"context.%s() minted while a context.Context parameter is in scope; thread the caller's ctx to keep its deadline and cancellation", name)
				}
			}
		}
		return true
	})
}

// checkDroppedCtx implements rule 2 for one exported function.
func checkDroppedCtx(pass *analysis.Pass, fd *ast.FuncDecl, params []types.Object) {
	for _, obj := range params {
		if usesObject(pass, fd.Body, obj) {
			continue
		}
		if callee := firstCtxCallee(pass, fd.Body); callee != "" {
			pass.Reportf(fd.Name.Pos(),
				"exported %s drops its ctx parameter: %s accepts a context but never receives it", fd.Name.Name, callee)
		}
	}
}

func usesObject(pass *analysis.Pass, body *ast.BlockStmt, obj types.Object) bool {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			used = true
		}
		return !used
	})
	return used
}

// firstCtxCallee returns the name of the first callee in body whose
// signature accepts a context.Context parameter, or "".
func firstCtxCallee(pass *analysis.Pass, body *ast.BlockStmt) string {
	name := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := analysis.CalleeFunc(pass.TypesInfo, call)
		if f == nil {
			return true
		}
		sig := f.Type().(*types.Signature)
		for i := 0; i < sig.Params().Len(); i++ {
			if analysis.IsContextType(sig.Params().At(i).Type()) {
				name = f.Name()
				return false
			}
		}
		return true
	})
	return name
}
