// Package locksafe guards the locking discipline of the network path
// (internal/server, internal/fleet, internal/cluster) and of the engine
// under it (internal/core, internal/aof), whose retirement and GC passes
// lock, unlock and re-lock the engine lock in loops:
//
//  1. No blocking operation — channel send/receive, select without a
//     default, range over a channel, time.Sleep, WaitGroup.Wait,
//     Cond.Wait, or I/O on net/bufio values — may run while a
//     sync.Mutex or sync.RWMutex is held. Blocking under a lock turns
//     one slow peer into a stalled server.
//  2. Every path out of a function must release what it locked: an
//     early return (or falling off the end) with a mutex still held
//     and no deferred unlock is flagged.
//
// A lock is a sync.Mutex, a sync.RWMutex or any value with Lock and
// Unlock methods — a sync.Locker parameter, the engine's hold-timing
// wrapper. The analysis is intraprocedural and tracks locks by expression
// (`s.mu`, `c.conn.mu`, `lk`). Functions whose name ends in "Locked" follow
// the repo convention of running under a caller-held lock and are
// checked like any other body: they acquire nothing themselves, so
// they cannot trip rule 2. A method named Lock or RLock is itself a lock:
// it returns with what it acquired held, by contract, and is not checked.
// Test files are not checked either: a test parks under a lock on
// purpose, to prove who does and does not wait for it.
package locksafe

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"directload/internal/analysis"
)

// Analyzer is the locksafe check.
var Analyzer = &analysis.Analyzer{
	Name: "locksafe",
	Doc:  "no blocking calls under a mutex; no lock/unlock imbalance on early returns",
	Run:  run,
}

// packages the check applies to (plus same-named fixture packages).
var scopePkgs = []string{"server", "fleet", "cluster", "core", "aof"}

func run(pass *analysis.Pass) error {
	inScope := false
	for _, p := range scopePkgs {
		if analysis.PkgPathMatches(pass.Pkg.Path(), p) {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if analysis.IsTestFile(pass, n) {
					return false
				}
				isLock := n.Recv != nil && (n.Name.Name == "Lock" || n.Name.Name == "RLock")
				if n.Body != nil && !isLock {
					checkFunc(pass, n.Body)
				}
			case *ast.FuncLit:
				checkFunc(pass, n.Body)
				return false // checkFunc does not recurse into nested lits; Inspect will reach them
			}
			return true
		})
	}
	return nil
}

// lockState tracks mutexes held at a program point, keyed by the
// mutex expression. deferred marks locks with a registered deferred
// unlock (balanced on every exit, but still *held* for rule 1).
type lockState struct {
	held map[string]bool // key -> deferred?
}

func newState() *lockState { return &lockState{held: make(map[string]bool)} }

func (s *lockState) clone() *lockState {
	c := newState()
	for k, v := range s.held {
		c.held[k] = v
	}
	return c
}

// merge keeps only locks held on both paths (conservative: fewer
// false positives downstream of diverging branches).
func (s *lockState) merge(o *lockState) {
	for k, v := range s.held {
		ov, ok := o.held[k]
		if !ok {
			delete(s.held, k)
		} else if ov {
			s.held[k] = v || ov
		}
	}
}

// undeferred returns the keys of locks held without a deferred unlock.
func (s *lockState) undeferred() []string {
	var out []string
	for k, deferred := range s.held {
		if !deferred {
			out = append(out, k)
		}
	}
	return out
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	st := walkStmts(pass, body.List, newState())
	if st != nil { // end of body is reachable
		for _, k := range st.undeferred() {
			pass.Reportf(body.Rbrace, "function can return with %s still locked (no deferred unlock)", k)
		}
	}
}

// walkStmts processes a statement list, threading the lock state.
// It returns nil when the list ends in a terminating statement.
func walkStmts(pass *analysis.Pass, list []ast.Stmt, st *lockState) *lockState {
	for _, stmt := range list {
		if st = walkStmt(pass, stmt, st); st == nil {
			return nil
		}
	}
	return st
}

func walkStmt(pass *analysis.Pass, stmt ast.Stmt, st *lockState) *lockState {
	// Rule 1: blocking operations in this statement's expressions
	// (not descending into nested function literals, which run on
	// their own goroutine or at defer time).
	if len(st.held) > 0 {
		reportBlocking(pass, stmt, st)
	}

	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			applyLockCall(pass, call, st, false)
		}
	case *ast.DeferStmt:
		applyLockCall(pass, s.Call, st, true)
	case *ast.ReturnStmt:
		for _, k := range st.undeferred() {
			pass.Reportf(s.Pos(), "return with %s still locked (no deferred unlock on this path)", k)
		}
		return nil
	case *ast.BranchStmt:
		// break/continue/goto leave the surrounding construct; stop
		// tracking this path (loops are analyzed with cloned state).
		if s.Tok == token.BREAK || s.Tok == token.CONTINUE || s.Tok == token.GOTO {
			return nil
		}
	case *ast.BlockStmt:
		return walkStmts(pass, s.List, st)
	case *ast.LabeledStmt:
		return walkStmt(pass, s.Stmt, st)
	case *ast.IfStmt:
		if s.Init != nil {
			st = walkStmt(pass, s.Init, st)
		}
		thenSt := walkStmts(pass, s.Body.List, st.clone())
		var elseSt *lockState
		if s.Else != nil {
			elseSt = walkStmt(pass, s.Else, st.clone())
		} else {
			elseSt = st.clone()
		}
		switch {
		case thenSt == nil && elseSt == nil:
			return nil
		case thenSt == nil:
			return elseSt
		case elseSt == nil:
			return thenSt
		default:
			thenSt.merge(elseSt)
			return thenSt
		}
	case *ast.ForStmt:
		if s.Init != nil {
			st = walkStmt(pass, s.Init, st)
		}
		walkStmts(pass, s.Body.List, st.clone())
		return st
	case *ast.RangeStmt:
		walkStmts(pass, s.Body.List, st.clone())
		return st
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		for _, clause := range clauseBodies(stmt) {
			walkStmts(pass, clause, st.clone())
		}
		return st
	case *ast.GoStmt:
		// The goroutine body runs concurrently with its own state;
		// run() reaches nested literals independently.
	case *ast.AssignStmt, *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt, *ast.EmptyStmt:
	}
	return st
}

func clauseBodies(stmt ast.Stmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	var list []ast.Stmt
	switch s := stmt.(type) {
	case *ast.SwitchStmt:
		list = s.Body.List
	case *ast.TypeSwitchStmt:
		list = s.Body.List
	case *ast.SelectStmt:
		list = s.Body.List
	}
	for _, c := range list {
		switch c := c.(type) {
		case *ast.CaseClause:
			out = append(out, c.Body)
		case *ast.CommClause:
			out = append(out, c.Body)
		}
	}
	return out
}

// applyLockCall updates the state for Lock/Unlock-family calls on
// sync.Mutex / sync.RWMutex expressions.
func applyLockCall(pass *analysis.Pass, call *ast.CallExpr, st *lockState, deferred bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	recv := sel.X
	if !isMutexType(pass, recv) {
		return
	}
	key := analysis.ExprString(recv)
	switch sel.Sel.Name {
	case "Lock", "RLock":
		if !deferred {
			st.held[key] = false
		}
	case "Unlock", "RUnlock":
		if deferred {
			if _, ok := st.held[key]; ok {
				st.held[key] = true
			}
		} else {
			delete(st.held, key)
		}
	}
}

func isMutexType(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok {
		return false
	}
	if analysis.IsNamed(tv.Type, "sync", "Mutex") || analysis.IsNamed(tv.Type, "sync", "RWMutex") {
		return true
	}
	return hasNiladic(tv.Type, "Lock") && hasNiladic(tv.Type, "Unlock")
}

// hasNiladic reports whether t, or a pointer to it, has a method of that
// name taking and returning nothing.
func hasNiladic(t types.Type, name string) bool {
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, name)
	f, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig := f.Type().(*types.Signature)
	return sig.Params().Len() == 0 && sig.Results().Len() == 0
}

// reportBlocking flags blocking operations in stmt's own expressions
// (skipping nested statements, which walkStmt visits itself, and
// nested function literals).
func reportBlocking(pass *analysis.Pass, stmt ast.Stmt, st *lockState) {
	var exprs []ast.Expr
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		exprs = []ast.Expr{s.X}
	case *ast.SendStmt:
		pass.Reportf(s.Arrow, "channel send while holding %s", heldList(st))
		exprs = []ast.Expr{s.Chan, s.Value}
	case *ast.AssignStmt:
		exprs = append(append([]ast.Expr{}, s.Lhs...), s.Rhs...)
	case *ast.ReturnStmt:
		exprs = s.Results
	case *ast.IfStmt:
		exprs = []ast.Expr{s.Cond}
	case *ast.ForStmt:
		if s.Cond != nil {
			exprs = []ast.Expr{s.Cond}
		}
	case *ast.SwitchStmt:
		if s.Tag != nil {
			exprs = []ast.Expr{s.Tag}
		}
	case *ast.SelectStmt:
		if !selectHasDefault(s) {
			pass.Reportf(s.Pos(), "blocking select (no default) while holding %s", heldList(st))
		}
		return
	case *ast.RangeStmt:
		if tv, ok := pass.TypesInfo.Types[s.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				pass.Reportf(s.Pos(), "range over channel while holding %s", heldList(st))
			}
		}
		exprs = []ast.Expr{s.X}
	case *ast.GoStmt:
		exprs = callArgs(s.Call)
	case *ast.DeferStmt:
		exprs = callArgs(s.Call)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					exprs = append(exprs, vs.Values...)
				}
			}
		}
	}
	for _, e := range exprs {
		inspectShallow(e, func(n ast.Node) {
			switch n := n.(type) {
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					pass.Reportf(n.Pos(), "channel receive while holding %s", heldList(st))
				}
			case *ast.CallExpr:
				if name := blockingCallName(pass, n); name != "" {
					pass.Reportf(n.Pos(), "%s while holding %s", name, heldList(st))
				}
			}
		})
	}
}

// callArgs returns a call's argument expressions (the go/defer call
// itself runs later; its arguments are evaluated now).
func callArgs(call *ast.CallExpr) []ast.Expr { return call.Args }

// heldList renders the held mutexes for a diagnostic message.
func heldList(st *lockState) string {
	keys := make([]string, 0, len(st.held))
	for k := range st.held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}

// inspectShallow visits e without descending into function literals.
func inspectShallow(e ast.Expr, f func(ast.Node)) {
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			f(n)
		}
		return true
	})
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// blockingCallName classifies calls that can block indefinitely,
// returning a description or "".
func blockingCallName(pass *analysis.Pass, call *ast.CallExpr) string {
	if analysis.IsPkgCall(pass.TypesInfo, call, "time", "Sleep") {
		return "time.Sleep"
	}
	f := analysis.CalleeFunc(pass.TypesInfo, call)
	if f == nil || f.Pkg() == nil {
		return ""
	}
	sig := f.Type().(*types.Signature)
	if sig.Recv() == nil {
		return ""
	}
	recv := analysis.Deref(sig.Recv().Type())
	named, ok := recv.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return ""
	}
	switch obj.Pkg().Path() {
	case "sync":
		if f.Name() == "Wait" && (obj.Name() == "WaitGroup" || obj.Name() == "Cond") {
			return "sync." + obj.Name() + ".Wait"
		}
	case "net":
		switch f.Name() {
		case "Read", "Write", "Accept", "ReadFrom", "WriteTo":
			return "net." + obj.Name() + "." + f.Name() + " (network I/O)"
		}
	case "bufio":
		switch f.Name() {
		case "Read", "ReadByte", "ReadBytes", "ReadString", "ReadRune", "Peek", "Write", "WriteByte", "WriteString", "Flush", "ReadSlice", "ReadLine":
			return "bufio." + obj.Name() + "." + f.Name() + " (buffered I/O)"
		}
	}
	return ""
}
