// Package nilmetrics enforces the nil-safe *metrics.Registry contract:
// every subsystem holds an optional registry and instruments
// unconditionally, which is only sound while every exported method on
// the metrics handle types starts with a nil-receiver guard.
//
// Three rules:
//
//  1. Inside the metrics package, an exported pointer-receiver method
//     on a guarded type (Registry, SlowLog, Tracer, Counter, Gauge,
//     Histogram, SLO, AttribTable) that
//     touches a receiver field must open with an `if recv == nil`
//     guard. Methods that only call other (guarded) methods are exempt.
//  2. Everywhere, guarded types must be held by pointer: a struct
//     field, variable or parameter declared with the bare value type
//     copies the embedded lock and breaks the nil contract.
//  3. In consumer code, wrapping calls in `if reg != nil { ... }` is
//     flagged as redundant: the whole point of the contract is that
//     call sites never need the guard.
package nilmetrics

import (
	"go/ast"
	"go/token"
	"go/types"

	"directload/internal/analysis"
)

// Analyzer is the nilmetrics check.
var Analyzer = &analysis.Analyzer{
	Name: "nilmetrics",
	Doc:  "enforce the nil-safe *metrics.Registry/*metrics.SlowLog contract",
	Run:  run,
}

// guardedTypes are the metrics types whose exported methods promise
// nil-receiver safety.
var guardedTypes = map[string]bool{
	"Registry":    true,
	"SlowLog":     true,
	"Tracer":      true,
	"Counter":     true,
	"Gauge":       true,
	"Histogram":   true,
	"SLO":         true,
	"AttribTable": true,
}

// isGuardedNamed reports whether t (sans pointer) is one of the
// guarded types declared in a metrics package.
func isGuardedNamed(t types.Type) bool {
	t = analysis.Deref(t)
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && guardedTypes[obj.Name()] &&
		analysis.PkgPathMatches(obj.Pkg().Path(), "metrics")
}

func run(pass *analysis.Pass) error {
	inMetrics := analysis.PkgPathMatches(pass.Pkg.Path(), "metrics")
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && inMetrics {
				checkMethodGuard(pass, fd)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				checkValueFields(pass, n.Fields)
			case *ast.FuncType:
				checkValueFields(pass, n.Params)
				checkValueFields(pass, n.Results)
			case *ast.ValueSpec:
				if n.Type != nil {
					checkValueType(pass, n.Type)
				}
			case *ast.IfStmt:
				if !inMetrics {
					checkRedundantGuard(pass, n)
				}
			}
			return true
		})
	}
	return nil
}

// checkMethodGuard implements rule 1.
func checkMethodGuard(pass *analysis.Pass, fd *ast.FuncDecl) {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || fd.Body == nil || !fd.Name.IsExported() {
		return
	}
	recvField := fd.Recv.List[0]
	if _, ok := recvField.Type.(*ast.StarExpr); !ok {
		return // value receivers cannot be nil
	}
	if len(recvField.Names) == 0 || recvField.Names[0].Name == "_" {
		return // receiver unused: body cannot dereference it
	}
	recvObj := pass.TypesInfo.Defs[recvField.Names[0]]
	if recvObj == nil || !isGuardedNamed(recvObj.Type()) {
		return
	}
	if !accessesReceiverField(pass, fd.Body, recvObj) {
		return // method delegates to other (guarded) methods only
	}
	if hasLeadingNilGuard(pass, fd.Body, recvObj) {
		return
	}
	pass.Reportf(fd.Name.Pos(),
		"exported method %s.%s dereferences its receiver without a leading nil guard; the metrics nil-safety contract requires `if %s == nil` first",
		analysis.Deref(recvObj.Type()).(*types.Named).Obj().Name(), fd.Name.Name, recvObj.Name())
}

// accessesReceiverField reports whether body reads or writes a field
// of the receiver object directly (method calls don't count).
func accessesReceiverField(pass *analysis.Pass, body *ast.BlockStmt, recv types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || found {
			return !found
		}
		id, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok || pass.TypesInfo.Uses[id] != recv {
			return true
		}
		if s, ok := pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.FieldVal {
			found = true
		}
		return !found
	})
	return found
}

// hasLeadingNilGuard reports whether the first statement of body is an
// if statement whose condition tests recv == nil (possibly or-ed with
// other conditions).
func hasLeadingNilGuard(pass *analysis.Pass, body *ast.BlockStmt, recv types.Object) bool {
	if len(body.List) == 0 {
		return false
	}
	ifs, ok := body.List[0].(*ast.IfStmt)
	if !ok {
		return false
	}
	return condTestsNil(pass, ifs.Cond, recv, token.EQL)
}

// condTestsNil reports whether cond contains `obj <op> nil`.
func condTestsNil(pass *analysis.Pass, cond ast.Expr, obj types.Object, op token.Token) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || be.Op != op || found {
			return !found
		}
		if isObjIdent(pass, be.X, obj) && isNilIdent(pass, be.Y) ||
			isObjIdent(pass, be.Y, obj) && isNilIdent(pass, be.X) {
			found = true
		}
		return !found
	})
	return found
}

func isObjIdent(pass *analysis.Pass, e ast.Expr, obj types.Object) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && pass.TypesInfo.Uses[id] == obj
}

func isNilIdent(pass *analysis.Pass, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := pass.TypesInfo.Uses[id].(*types.Nil)
	return isNil
}

// checkValueFields implements rule 2 over a field list.
func checkValueFields(pass *analysis.Pass, fields *ast.FieldList) {
	if fields == nil {
		return
	}
	for _, f := range fields.List {
		checkValueType(pass, f.Type)
	}
}

func checkValueType(pass *analysis.Pass, typeExpr ast.Expr) {
	tv, ok := pass.TypesInfo.Types[typeExpr]
	if !ok {
		return
	}
	t := types.Unalias(tv.Type)
	named, ok := t.(*types.Named)
	if !ok {
		return // pointers, slices, maps of the type are fine
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !guardedTypes[obj.Name()] ||
		!analysis.PkgPathMatches(obj.Pkg().Path(), "metrics") {
		return
	}
	if analysis.PkgPathMatches(pass.Pkg.Path(), "metrics") && obj.Pkg() == pass.Pkg {
		return // the declaring package may use its own values internally
	}
	pass.Reportf(typeExpr.Pos(),
		"metrics.%s held by value; declare *metrics.%s so the nil-safe contract (and the embedded lock) survive",
		obj.Name(), obj.Name())
}

// checkRedundantGuard implements rule 3.
func checkRedundantGuard(pass *analysis.Pass, ifs *ast.IfStmt) {
	if ifs.Else != nil || ifs.Init != nil || len(ifs.Body.List) == 0 {
		return
	}
	be, ok := ifs.Cond.(*ast.BinaryExpr)
	if !ok || be.Op != token.NEQ {
		return
	}
	var guarded ast.Expr
	switch {
	case isNilIdent(pass, be.Y):
		guarded = be.X
	case isNilIdent(pass, be.X):
		guarded = be.Y
	default:
		return
	}
	gt, ok := pass.TypesInfo.Types[guarded]
	if !ok || !isGuardedNamed(gt.Type) {
		return
	}
	if _, isPtr := types.Unalias(gt.Type).(*types.Pointer); !isPtr {
		return
	}
	key := analysis.ExprString(guarded)
	for _, stmt := range ifs.Body.List {
		es, ok := stmt.(*ast.ExprStmt)
		if !ok {
			return
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			return
		}
		recv := analysis.ReceiverExpr(call)
		// Accept chained calls like reg.Counter("x").Inc(): the guard
		// is redundant as long as the chain is rooted at the guarded
		// expression.
		for recv != nil && analysis.ExprString(recv) != key {
			inner, ok := ast.Unparen(recv).(*ast.CallExpr)
			if !ok {
				return
			}
			recv = analysis.ReceiverExpr(inner)
		}
		if recv == nil {
			return
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !sel.Sel.IsExported() {
			return
		}
	}
	pass.Reportf(ifs.Pos(),
		"redundant nil guard: methods on %s are nil-safe by contract; call them unconditionally", key)
}
