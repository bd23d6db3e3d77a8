// Package errflow guards error handling on the storage write path and
// in replica fan-outs:
//
//  1. A dropped error from Close/Flush on a storage-path type
//     (internal/blockfs, internal/aof, internal/core, internal/lsm,
//     plus os.File and bufio.Writer) is flagged when the call stands
//     alone as a statement. These are the calls that surface buffered
//     write failures — dropping one turns data loss silent. Deferred
//     closes and explicit `_ =` discards are accepted (the former is
//     teardown idiom, the latter a visible decision).
//  2. A loop that funnels many errors into "keep the first one"
//     (`if err != nil && firstErr == nil { firstErr = err }`) is
//     flagged: multi-replica loops must aggregate with errors.Join so
//     no replica's failure is masked.
package errflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"directload/internal/analysis"
)

// Analyzer is the errflow check.
var Analyzer = &analysis.Analyzer{
	Name: "errflow",
	Doc:  "no dropped Close/Flush errors on write paths; no first-error-only loops",
	Run:  run,
}

// storagePkgs are the packages whose Close/Flush errors are
// durability-relevant.
var storagePkgs = []string{"blockfs", "aof", "core", "lsm"}

var checkedMethods = map[string]bool{"Close": true, "Flush": true}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if !analysis.IsTestFile(pass, n) {
					checkDroppedError(pass, n)
				}
			case *ast.ForStmt:
				if !analysis.IsTestFile(pass, n) {
					checkFirstErrorLoop(pass, n.Body)
				}
			case *ast.RangeStmt:
				if !analysis.IsTestFile(pass, n) {
					checkFirstErrorLoop(pass, n.Body)
				}
			}
			return true
		})
	}
	return nil
}

// checkDroppedError implements rule 1 for one expression statement.
func checkDroppedError(pass *analysis.Pass, stmt *ast.ExprStmt) {
	call, ok := stmt.X.(*ast.CallExpr)
	if !ok {
		return
	}
	f := analysis.CalleeFunc(pass.TypesInfo, call)
	if f == nil || !checkedMethods[f.Name()] {
		return
	}
	sig := f.Type().(*types.Signature)
	if sig.Recv() == nil || !returnsError(sig) {
		return
	}
	if !storageReceiver(sig.Recv().Type()) {
		return
	}
	pass.Reportf(call.Pos(),
		"%s error dropped on the storage write path; check it (or discard explicitly with `_ =` and a reason)", f.Name())
}

func returnsError(sig *types.Signature) bool {
	for i := 0; i < sig.Results().Len(); i++ {
		t := types.Unalias(sig.Results().At(i).Type())
		if named, ok := t.(*types.Named); ok &&
			named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
			return true
		}
	}
	return false
}

// storageReceiver reports whether the method's receiver type belongs
// to a storage-path package (or is os.File / bufio.Writer).
func storageReceiver(t types.Type) bool {
	t = analysis.Deref(t)
	var obj *types.TypeName
	switch t := t.(type) {
	case *types.Named:
		obj = t.Obj()
	case *types.Interface:
		return false // bare interfaces carry no package identity
	default:
		return false
	}
	if obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	if path == "os" && obj.Name() == "File" {
		return true
	}
	if path == "bufio" && obj.Name() == "Writer" {
		return true
	}
	for _, p := range storagePkgs {
		if analysis.PkgPathMatches(path, p) {
			return true
		}
	}
	return false
}

// checkFirstErrorLoop implements rule 2 over one loop body.
func checkFirstErrorLoop(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		for _, stmt := range ifs.Body.List {
			as, ok := stmt.(*ast.AssignStmt)
			if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 {
				continue
			}
			lhs, ok := as.Lhs[0].(*ast.Ident)
			if !ok || lhs.Name == "_" {
				continue
			}
			obj := pass.TypesInfo.Uses[lhs]
			if obj == nil || !isErrorType(obj.Type()) {
				continue
			}
			if condTestsObjNil(pass, ifs.Cond, obj) {
				pass.Reportf(as.Pos(),
					"loop keeps only the first error in %s; aggregate every replica failure with errors.Join", lhs.Name)
			}
		}
		return true
	})
}

func isErrorType(t types.Type) bool {
	t = types.Unalias(t)
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

// condTestsObjNil reports whether cond contains `obj == nil`.
func condTestsObjNil(pass *analysis.Pass, cond ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || be.Op != token.EQL || found {
			return !found
		}
		x, xok := ast.Unparen(be.X).(*ast.Ident)
		y, yok := ast.Unparen(be.Y).(*ast.Ident)
		if xok && pass.TypesInfo.Uses[x] == obj && yok && y.Name == "nil" {
			found = true
		}
		if yok && pass.TypesInfo.Uses[y] == obj && xok && x.Name == "nil" {
			found = true
		}
		return !found
	})
	return found
}
