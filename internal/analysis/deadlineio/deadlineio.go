// Package deadlineio enforces the stall-detection discipline on the
// data plane (internal/proto, DESIGN §6): a raw net.Conn must never
// block in Read or Write without a deadline armed. A dead peer on an
// undeadlined conn parks the goroutine forever — the stall watchdog
// only sees progress counters, so a read that never returns never
// trips it.
//
// A conn-typed variable is "armed" once any SetDeadline /
// SetReadDeadline / SetWriteDeadline call on it appears in the same
// function (flow-insensitive: arming under a config guard such as
// `if cfg.StallTimeout > 0` counts). An element of a function-scope
// []net.Conn (`streams[i]`) is checked as its slice variable, so arming
// any element arms them all. Unarmed conns may not:
//
//   - call Read or Write directly, or
//   - be passed (as a bare argument) to a function that is not itself
//     deadline-disciplined for that parameter.
//
// Wrapping a conn in a composite literal (progressConn{Conn: c}),
// storing it into a field, or returning it is an ownership hand-off,
// not a blocking use, and is never flagged.
//
// A function is deadline-disciplined for a net.Conn parameter when its
// body arms a deadline on it, absorbs it (composite-literal wrap or
// non-local store), or forwards it to another disciplined function —
// computed as a fixpoint over the package's functions. Only
// internal/proto is checked, and its conn helpers are unexported, so
// the property never needs to cross a package boundary; a callee from
// another package counts as undisciplined.
package deadlineio

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/didclab/eta/internal/analysis/framework"
)

// Analyzer is the deadlineio instance wired into cmd/vettool.
var Analyzer = &framework.Analyzer{
	Name: "deadlineio",
	Doc:  "net.Conn Read/Write in internal/proto must have a deadline armed or flow through deadline-disciplined helpers (stall watchdog, DESIGN §6)",
	Run:  run,
}

// protoRoots scopes enforcement to the data plane.
var protoRoots = []string{"internal/proto"}

func run(pass *framework.Pass) error {
	if pass.TypesInfo == nil || pass.Pkg == nil {
		return nil
	}
	if !framework.PathMatch(pass.Pkg.Path(), protoRoots) {
		return nil
	}
	a := &analysis{pass: pass, funcs: make(map[types.Object]*funcInfo)}
	a.collect()
	a.fixpoint()
	for _, fi := range a.funcs {
		if fi.decl.Body != nil && !a.isTestFile(fi.decl) {
			a.check(fi)
		}
	}
	return nil
}

type funcInfo struct {
	decl *ast.FuncDecl
	obj  types.Object
	// connParams maps a net.Conn-typed parameter object to its index.
	connParams map[types.Object]int
	// disciplined marks parameter indices proven safe to hand a conn.
	disciplined map[int]bool
}

type analysis struct {
	pass  *framework.Pass
	funcs map[types.Object]*funcInfo
}

// isNetConn reports whether t is exactly the net.Conn interface type.
func isNetConn(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Conn" && obj.Pkg() != nil && obj.Pkg().Path() == "net"
}

func (a *analysis) isTestFile(fd *ast.FuncDecl) bool {
	// Tests dial loopback peers whose liveness the harness controls;
	// the discipline protects production paths.
	return strings.HasSuffix(a.pass.Fset.Position(fd.Pos()).Filename, "_test.go")
}

func (a *analysis) collect() {
	info := a.pass.TypesInfo
	for _, f := range a.pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj := info.Defs[fd.Name]
			if obj == nil {
				continue
			}
			fi := &funcInfo{
				decl:        fd,
				obj:         obj,
				connParams:  make(map[types.Object]int),
				disciplined: make(map[int]bool),
			}
			idx := 0
			if fd.Type.Params != nil {
				for _, field := range fd.Type.Params.List {
					for _, name := range field.Names {
						if p := info.Defs[name]; p != nil && isNetConn(p.Type()) {
							fi.connParams[p] = idx
						}
						idx++
					}
				}
			}
			a.funcs[obj] = fi
		}
	}
}

// fixpoint propagates discipline: a conn parameter is disciplined if
// the body arms, absorbs, or forwards it to a disciplined callee.
// Forwarding makes the relation recursive, hence the iteration.
func (a *analysis) fixpoint() {
	for changed := true; changed; {
		changed = false
		for _, fi := range a.funcs {
			if fi.decl.Body == nil {
				continue
			}
			for p, idx := range fi.connParams {
				if fi.disciplined[idx] {
					continue
				}
				if a.absorbs(fi, p) {
					fi.disciplined[idx] = true
					changed = true
				}
			}
		}
	}
}

// absorbs reports whether fi's body arms a deadline on p, wraps or
// stores it, or forwards it to a disciplined callee parameter.
func (a *analysis) absorbs(fi *funcInfo, p types.Object) bool {
	info := a.pass.TypesInfo
	found := false
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch v := n.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(v.Fun).(*ast.SelectorExpr); ok {
				if isDeadlineMethod(sel.Sel.Name) && identObj(info, sel.X) == p {
					found = true
					return false
				}
			}
			// append(xs, p) stores the conn into a slice: a hand-off.
			if b, ok := calleeObj(info, v).(*types.Builtin); ok && b.Name() == "append" {
				for _, arg := range v.Args[1:] {
					if identObj(info, arg) == p {
						found = true
						return false
					}
				}
			}
			for i, arg := range v.Args {
				if identObj(info, arg) == p && a.calleeDisciplined(v, i) {
					found = true
					return false
				}
			}
		case *ast.CompositeLit:
			for _, elt := range v.Elts {
				val := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					val = kv.Value
				}
				if identObj(info, val) == p {
					found = true
					return false
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range v.Rhs {
				if identObj(info, rhs) != p {
					continue
				}
				var lhs ast.Expr
				if len(v.Lhs) == len(v.Rhs) {
					lhs = v.Lhs[i]
				} else if len(v.Lhs) > 0 {
					lhs = v.Lhs[0]
				}
				if lhs != nil && isNonLocalStore(info, lhs) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// isNonLocalStore reports whether lhs writes outside the function's
// locals: a field, an element, a dereference, or a package-level
// variable. Such a store transfers ownership to a longer-lived holder
// that is responsible for the conn's deadlines.
func isNonLocalStore(info *types.Info, lhs ast.Expr) bool {
	switch v := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	case *ast.Ident:
		obj := info.Defs[v]
		if obj == nil {
			obj = info.Uses[v]
		}
		return obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
	}
	return false
}

func isDeadlineMethod(name string) bool {
	switch name {
	case "SetDeadline", "SetReadDeadline", "SetWriteDeadline":
		return true
	}
	return false
}

// identObj resolves a bare identifier expression to its object.
func identObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	return info.Uses[id]
}

// calleeDisciplined reports whether the function called by call is
// deadline-disciplined for the parameter receiving argument argIdx.
func (a *analysis) calleeDisciplined(call *ast.CallExpr, argIdx int) bool {
	fi, ok := a.funcs[calleeObj(a.pass.TypesInfo, call)]
	return ok && fi.disciplined[argIdx]
}

func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[f]
	case *ast.SelectorExpr:
		return info.Uses[f.Sel]
	}
	return nil
}

// check flags blocking uses of unarmed conns in one function. Roots
// are every function-scope variable of static type net.Conn (params
// and locals alike) and every function-scope []net.Conn, whose
// elements share its arming; arming is flow-insensitive within the
// function.
func (a *analysis) check(fi *funcInfo) {
	info := a.pass.TypesInfo
	armed := make(map[types.Object]bool)
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && isDeadlineMethod(sel.Sel.Name) {
			if obj := connRoot(info, sel.X); obj != nil {
				armed[obj] = true
			}
		}
		return true
	})
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if obj := connRoot(info, sel.X); obj != nil && !armed[obj] {
				if sel.Sel.Name == "Read" || sel.Sel.Name == "Write" {
					a.pass.Reportf(call.Pos(), "%s on net.Conn %s with no deadline armed: a dead peer blocks this goroutine forever and the stall watchdog never fires; call SetDeadline first or route through a deadline-disciplined helper (DESIGN §6)", sel.Sel.Name, types.ExprString(sel.X))
				}
			}
		}
		// Builtins never block on a conn; append in particular is a
		// store into a slice, an ownership hand-off.
		if _, ok := calleeObj(info, call).(*types.Builtin); ok {
			return true
		}
		for i, arg := range call.Args {
			obj := connRoot(info, arg)
			if obj == nil || armed[obj] {
				continue
			}
			if a.calleeDisciplined(call, i) {
				continue
			}
			// Arming methods and net.Conn housekeeping on the conn
			// itself were handled above; this is a bare hand-off.
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && connRoot(info, sel.X) == obj {
				continue
			}
			a.pass.Reportf(arg.Pos(), "net.Conn %s passed to %s with no deadline armed and the callee is not deadline-disciplined: arm a deadline first or absorb the conn in the callee (DESIGN §6)", types.ExprString(arg), calleeName(call))
		}
		return true
	})
}

// connRoot resolves a conn expression to the function-scope variable
// whose arming covers it: a bare net.Conn variable, or the []net.Conn
// variable an element s[i] is taken from. Anything else (fields,
// package-level conns, a slice passed whole) is not a root.
func connRoot(info *types.Info, e ast.Expr) types.Object {
	e = ast.Unparen(e)
	if ix, ok := e.(*ast.IndexExpr); ok {
		v, ok := identObj(info, ix.X).(*types.Var)
		if !ok || !isLocal(v) {
			return nil
		}
		if sl, ok := v.Type().Underlying().(*types.Slice); ok && isNetConn(sl.Elem()) {
			return v
		}
		return nil
	}
	v, ok := identObj(info, e).(*types.Var)
	if !ok || !isLocal(v) || !isNetConn(v.Type()) {
		return nil
	}
	return v
}

// isLocal reports whether v is a function-scope variable (parameter
// or local): package-level conns are another analyzer's problem.
func isLocal(v *types.Var) bool {
	return !v.IsField() && (v.Pkg() == nil || v.Parent() != v.Pkg().Scope())
}

func calleeName(call *ast.CallExpr) string {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return types.ExprString(f)
	}
	return "callee"
}
