// Package bufown enforces the proto block-buffer ownership rules
// (DESIGN.md §6.2) for getBlockBuf/putBlockBuf buffers.
//
// v2 is interprocedural within the package: a fixpoint over its
// functions discovers helpers that release pointer-to-slice parameters
// (directly or via other helpers) and functions whose return value is
// a pool buffer. The pool and every helper over it are unexported
// internal/proto identifiers, so no other package can call them and
// nothing needs to be carried across packages. On top of that
// dataflow the analyzer reports:
//
//   - never-released: a buffer acquired and neither released (by
//     putBlockBuf or a releasing helper) nor handed off.
//   - blind handoff: a buffer sent/stored/returned out of a function
//     that contains no putBlockBuf at all — ownership left with nobody
//     visibly responsible; annotate `//lint:allow bufown handoff: <who
//     releases>` when the receiver is the owner.
//   - use-after-put and double-put within a statement list: once a
//     buffer is released it may be handed to another stream
//     immediately, so any later read is a data race in waiting.
//   - defer-capture: `defer putBlockBuf(bufp)` evaluates bufp at defer
//     time; if bufp is later swapped for a bigger buffer the original
//     is released twice (and the replacement leaks). The put must be
//     wrapped in a closure.
//   - escapes (internal/proto only): pool-backed buffers returned by
//     exported functions, stored in package-level variables, or passed
//     to interface methods that are not contract-bound to drop the
//     slice (io.Reader/io.Writer shapes are exempt — their contract
//     forbids retention).
//
// Matching is by name (getBlockBuf/putBlockBuf), as in v1, so fixture
// packages need no imports; helper reasoning is type-based.
package bufown

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"github.com/didclab/eta/internal/analysis/framework"
)

// Analyzer is the bufown instance wired into cmd/vettool.
var Analyzer = &framework.Analyzer{
	Name: "bufown",
	Doc:  "track getBlockBuf/putBlockBuf ownership across helpers: leaks, use-after-put, double-put, and pool escapes",
	Run:  run,
}

// protoRoots gates the escape checks: only inside the data plane does
// a pool buffer exist to escape.
var protoRoots = []string{"internal/proto"}

type funcInfo struct {
	decl       *ast.FuncDecl
	obj        types.Object
	bufParams  map[types.Object]int // *[]byte params → index
	releases   map[int]bool
	source     bool
	getVars    map[types.Object]bool // objects holding a pool buffer
	mentionPut bool                  // any putBlockBuf identifier in the body
}

func run(pass *framework.Pass) error {
	if pass.TypesInfo == nil {
		return nil
	}
	fns := collect(pass)
	byObj := make(map[types.Object]*funcInfo, len(fns))
	for _, fi := range fns {
		if fi.obj != nil {
			byObj[fi.obj] = fi
		}
	}
	fixpoint(pass, fns, byObj)
	for _, fi := range fns {
		check(pass, byObj, fi)
	}
	return nil
}

func collect(pass *framework.Pass) []*funcInfo {
	var fns []*funcInfo
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fi := &funcInfo{
				decl:      fd,
				obj:       pass.TypesInfo.Defs[fd.Name],
				bufParams: make(map[types.Object]int),
				releases:  make(map[int]bool),
				getVars:   make(map[types.Object]bool),
			}
			if fd.Type.Params != nil {
				idx := 0
				for _, field := range fd.Type.Params.List {
					for _, name := range field.Names {
						if obj := pass.TypesInfo.Defs[name]; obj != nil && isBufPtr(obj.Type()) {
							fi.bufParams[obj] = idx
						}
						idx++
					}
					if len(field.Names) == 0 {
						idx++
					}
				}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == "putBlockBuf" {
					fi.mentionPut = true
				}
				return true
			})
			fns = append(fns, fi)
		}
	}
	return fns
}

// fixpoint propagates releases/source/getVars through in-package helper
// calls until stable.
func fixpoint(pass *framework.Pass, fns []*funcInfo, byObj map[types.Object]*funcInfo) {
	for changed := true; changed; {
		changed = false
		for _, fi := range fns {
			ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
				switch v := n.(type) {
				case *ast.AssignStmt:
					if len(v.Lhs) == 1 && len(v.Rhs) == 1 {
						if id, ok := v.Lhs[0].(*ast.Ident); ok && isGetCall(pass, byObj, v.Rhs[0]) {
							obj := pass.TypesInfo.Defs[id]
							if obj == nil {
								obj = pass.TypesInfo.Uses[id]
							}
							if obj != nil && !fi.getVars[obj] {
								fi.getVars[obj] = true
								changed = true
							}
						}
					}
				case *ast.CallExpr:
					for _, idx := range releasedPositions(pass, byObj, v) {
						if idx >= len(v.Args) {
							continue
						}
						if id, ok := ast.Unparen(v.Args[idx]).(*ast.Ident); ok {
							obj := pass.TypesInfo.Uses[id]
							if pIdx, ok := fi.bufParams[obj]; ok && !fi.releases[pIdx] {
								fi.releases[pIdx] = true
								changed = true
							}
						}
					}
				case *ast.ReturnStmt:
					if fi.source || len(v.Results) != 1 {
						return true
					}
					res := ast.Unparen(v.Results[0])
					if isGetCall(pass, byObj, res) {
						fi.source = true
						changed = true
					} else if id, ok := res.(*ast.Ident); ok && fi.getVars[pass.TypesInfo.Uses[id]] {
						fi.source = true
						changed = true
					}
				}
				return true
			})
		}
	}
}

// isGetCall reports whether e acquires a pool buffer: a call to
// getBlockBuf or to an in-package helper that returns one.
func isGetCall(pass *framework.Pass, byObj map[types.Object]*funcInfo, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "getBlockBuf" {
		return true
	}
	fi, ok := byObj[calleeObj(pass, call)]
	return ok && fi.source
}

// releasedPositions returns the argument indices call releases: [0]
// for putBlockBuf itself, the fixpoint's indices for in-package helpers.
func releasedPositions(pass *framework.Pass, byObj map[types.Object]*funcInfo, call *ast.CallExpr) []int {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "putBlockBuf" {
		return []int{0}
	}
	fi, ok := byObj[calleeObj(pass, call)]
	if !ok {
		return nil
	}
	var idxs []int
	for i := range fi.releases {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	return idxs
}

func calleeObj(pass *framework.Pass, call *ast.CallExpr) types.Object {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[f]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[f.Sel]
	}
	return nil
}

func isBufPtr(t types.Type) bool {
	p, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	s, ok := p.Elem().Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}

// ownership events observed for one origin buffer within a function.
type varState struct {
	getPos    token.Pos
	released  bool
	handedOff bool
}

// rootIdent is framework.RootIdent plus slice expressions: bufown must
// trace `payload := (*bufp)[:n]` back to bufp, a shape the generic
// lvalue helper deliberately rejects.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// check runs the per-function diagnostics for fi.
func check(pass *framework.Pass, byObj map[types.Object]*funcInfo, fi *funcInfo) {
	info := pass.TypesInfo
	inProto := pass.Pkg != nil && framework.PathMatch(pass.Pkg.Path(), protoRoots)

	// originOf maps aliases and derived slices back to the buffer they
	// view; vars holds acquisition state per origin object.
	originOf := make(map[types.Object]types.Object)
	vars := make(map[types.Object]*varState)
	lookup := func(id *ast.Ident) types.Object {
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		if o, ok := originOf[obj]; ok {
			return o
		}
		return nil
	}

	// Pass 1 (source order): discover get-vars, aliases and derived
	// slices. Source order suffices: a derivation textually precedes
	// its uses in this codebase's straight-line acquisition patterns.
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			return true
		}
		if isGetCall(pass, byObj, as.Rhs[0]) {
			originOf[obj] = obj
			if _, ok := vars[obj]; !ok {
				vars[obj] = &varState{getPos: as.Rhs[0].Pos()}
			}
			return true
		}
		// Aliases (q := bufp) and derived views (payload :=
		// (*bufp)[:n]) trace back to the origin buffer; releasing or
		// handing off through them credits the origin.
		if root := rootIdent(as.Rhs[0]); root != nil {
			if origin := lookup(root); origin != nil {
				if _, seen := originOf[obj]; !seen {
					originOf[obj] = origin
				}
			}
		}
		return true
	})

	// Pass 2: release and handoff events, plus direct-use gets.
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			for _, idx := range releasedPositions(pass, byObj, v) {
				if idx >= len(v.Args) {
					continue
				}
				if id, ok := ast.Unparen(v.Args[idx]).(*ast.Ident); ok {
					if origin := lookup(id); origin != nil {
						vars[origin].released = true
					}
				}
			}
			// A pool buffer acquired straight into a releasing call is
			// fine; into any other call it is a handoff that needs a
			// visible putBlockBuf somewhere in the function.
			for argIdx, arg := range v.Args {
				if !isGetCall(pass, byObj, arg) {
					continue
				}
				if hasInt(releasedPositions(pass, byObj, v), argIdx) {
					continue
				}
				if !fi.mentionPut {
					reportHandoff(pass, fi, arg.Pos())
				}
			}
		case *ast.SendStmt:
			if isGetCall(pass, byObj, v.Value) {
				if !fi.mentionPut {
					reportHandoff(pass, fi, v.Value.Pos())
				}
			} else {
				markHandoff(v.Value, lookup, vars)
			}
		case *ast.CompositeLit:
			for _, el := range v.Elts {
				e := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				markHandoff(e, lookup, vars)
			}
		case *ast.ReturnStmt:
			for _, res := range v.Results {
				markHandoff(res, lookup, vars)
			}
		case *ast.AssignStmt:
			// Storing a pool var through a field/index/global LHS hands
			// it to the structure's owner.
			for i, lhs := range v.Lhs {
				if _, ok := lhs.(*ast.Ident); ok {
					continue
				}
				if i < len(v.Rhs) {
					markHandoff(v.Rhs[i], lookup, vars)
				}
			}
		case *ast.ExprStmt:
			if isGetCall(pass, byObj, v.X) {
				reportLost(pass, fi, v.X.Pos())
			}
		}
		return true
	})

	// Never-released / blind-handoff verdicts.
	type verdict struct {
		pos  token.Pos
		lost bool
	}
	var verdicts []verdict
	for _, st := range vars {
		if st.released {
			continue
		}
		if st.handedOff {
			if !fi.mentionPut {
				verdicts = append(verdicts, verdict{st.getPos, false})
			}
			continue
		}
		verdicts = append(verdicts, verdict{st.getPos, true})
	}
	sort.Slice(verdicts, func(i, j int) bool { return verdicts[i].pos < verdicts[j].pos })
	for _, v := range verdicts {
		if v.lost {
			reportLost(pass, fi, v.pos)
		} else {
			reportHandoff(pass, fi, v.pos)
		}
	}

	checkOrdering(pass, byObj, fi, lookup)
	checkDeferCapture(pass, byObj, fi, lookup)
	if inProto {
		checkEscapes(pass, byObj, fi, lookup, vars)
	}
}

func hasInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func reportLost(pass *framework.Pass, fi *funcInfo, pos token.Pos) {
	pass.Reportf(pos, "getBlockBuf result is never released: %s has no putBlockBuf on any path; release the buffer or annotate the handoff with //lint:allow bufown", fi.decl.Name.Name)
}

func reportHandoff(pass *framework.Pass, fi *funcInfo, pos token.Pos) {
	pass.Reportf(pos, "pool buffer handed off out of %s with no putBlockBuf in sight; annotate //lint:allow bufown handoff: <who releases> (DESIGN §6.2)", fi.decl.Name.Name)
}

// markHandoff flags e's origin as deliberately transferred when e is a
// bare pool-derived identifier.
func markHandoff(e ast.Expr, lookup func(*ast.Ident) types.Object, vars map[types.Object]*varState) {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if origin := lookup(id); origin != nil {
			vars[origin].handedOff = true
		}
	}
}

// checkOrdering walks every statement list and reports reads of a
// buffer after an unconditional putBlockBuf earlier in the same list
// (use-after-put) and repeated releases (double-put). Reassignment
// revives the variable — the put-then-grow swap is legal.
func checkOrdering(pass *framework.Pass, byObj map[types.Object]*funcInfo, fi *funcInfo, lookup func(*ast.Ident) types.Object) {
	var walkList func(stmts []ast.Stmt)
	walkList = func(stmts []ast.Stmt) {
		released := make(map[types.Object]bool)
		for _, stmt := range stmts {
			// Reads of already-released buffers anywhere inside stmt.
			if len(released) > 0 {
				reassigned, releasing := stmtEffects(pass, byObj, stmt, lookup)
				ast.Inspect(stmt, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					origin := lookup(id)
					if origin == nil || !released[origin] {
						return true
					}
					if reassigned[origin] && isLHS(stmt, id) {
						return true
					}
					if releasing[origin] {
						pass.Reportf(id.Pos(), "%s released twice: double-put would hand the same buffer to two owners (DESIGN §6.2)", id.Name)
					} else {
						pass.Reportf(id.Pos(), "use of %s after putBlockBuf: the buffer may already belong to another stream (DESIGN §6.2)", id.Name)
					}
					released[origin] = false // one report per incident
					return true
				})
			}
			reassigned, releasing := stmtEffects(pass, byObj, stmt, lookup)
			for o := range reassigned {
				delete(released, o)
			}
			for o := range releasing {
				released[o] = true
			}
		}
	}
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.BlockStmt:
			walkList(v.List)
		case *ast.CaseClause:
			walkList(v.Body)
		case *ast.CommClause:
			walkList(v.Body)
		}
		return true
	})
}

// stmtEffects classifies what stmt does, at its own nesting level, to
// pool-derived variables: releasing (an unconditional top-level put)
// and reassigned (a fresh value bound to the name).
func stmtEffects(pass *framework.Pass, byObj map[types.Object]*funcInfo, stmt ast.Stmt, lookup func(*ast.Ident) types.Object) (reassigned, releasing map[types.Object]bool) {
	reassigned = make(map[types.Object]bool)
	releasing = make(map[types.Object]bool)
	switch v := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(v.X).(*ast.CallExpr); ok {
			for _, idx := range releasedPositions(pass, byObj, call) {
				if idx >= len(call.Args) {
					continue
				}
				if id, ok := ast.Unparen(call.Args[idx]).(*ast.Ident); ok {
					if origin := lookup(id); origin != nil {
						releasing[origin] = true
					}
				}
			}
		}
	case *ast.AssignStmt:
		for _, lhs := range v.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if origin := lookup(id); origin != nil {
					reassigned[origin] = true
				}
			}
		}
	}
	return reassigned, releasing
}

// isLHS reports whether id is an assignment target within stmt.
func isLHS(stmt ast.Stmt, id *ast.Ident) bool {
	as, ok := stmt.(*ast.AssignStmt)
	if !ok {
		return false
	}
	for _, lhs := range as.Lhs {
		if lhs == id {
			return true
		}
	}
	return false
}

// checkDeferCapture reports the `defer putBlockBuf(bufp)` +
// later-reassignment pattern: the deferred call releases the pointer
// captured when the defer statement ran, so the swapped-out original
// is put twice and the replacement leaks.
func checkDeferCapture(pass *framework.Pass, byObj map[types.Object]*funcInfo, fi *funcInfo, lookup func(*ast.Ident) types.Object) {
	type capture struct {
		pos  token.Pos
		obj  types.Object
		name string
	}
	info := pass.TypesInfo
	var captures []capture
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		ds, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		for _, idx := range releasedPositions(pass, byObj, ds.Call) {
			if idx >= len(ds.Call.Args) {
				continue
			}
			if id, ok := ast.Unparen(ds.Call.Args[idx]).(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil && lookup(id) != nil {
					captures = append(captures, capture{ds.Pos(), obj, id.Name})
				}
			}
		}
		return true
	})
	if len(captures) == 0 {
		return
	}
	// Only a reassignment of the captured variable itself invalidates
	// the deferred pointer; writes to aliases do not.
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN {
			return true
		}
		for _, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.Uses[id]
			if obj == nil {
				continue
			}
			for _, c := range captures {
				if c.obj == obj && as.Pos() > c.pos {
					pass.Reportf(c.pos, "defer putBlockBuf(%s) captures the pointer at defer time and %s is reassigned later: the original buffer is released twice and the replacement leaks; use defer func() { putBlockBuf(%s) }() (DESIGN §6.2)", c.name, c.name, c.name)
					return false
				}
			}
		}
		return true
	})
}

// checkEscapes applies the internal/proto-only escape rules.
func checkEscapes(pass *framework.Pass, byObj map[types.Object]*funcInfo, fi *funcInfo, lookup func(*ast.Ident) types.Object, vars map[types.Object]*varState) {
	info := pass.TypesInfo
	// E1: exported function returning a pool buffer.
	if fi.source && fi.decl.Name.IsExported() {
		pass.Reportf(fi.decl.Name.Pos(), "pool-backed buffer returned by exported %s escapes internal/proto; external callers cannot release it (DESIGN §6.2)", fi.decl.Name.Name)
	}
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			// E2: stored into a package-level variable.
			for i, lhs := range v.Lhs {
				root := framework.RootIdent(lhs)
				if root == nil || i >= len(v.Rhs) {
					continue
				}
				obj := info.Uses[root]
				if obj == nil || obj.Parent() == nil || pass.Pkg == nil || obj.Parent() != pass.Pkg.Scope() {
					continue
				}
				rhsRoot := rootIdent(v.Rhs[i])
				if rhsRoot != nil && lookup(rhsRoot) != nil {
					pass.Reportf(v.Rhs[i].Pos(), "pool-backed buffer stored in package-level %s outlives its release window (DESIGN §6.2)", root.Name)
				}
			}
		case *ast.CallExpr:
			// E3: passed to an interface method that is free to retain
			// it. io.Reader/io.Writer-shaped methods are exempt: their
			// contract forbids retaining the slice.
			sel, ok := ast.Unparen(v.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			selection := info.Selections[sel]
			if selection == nil || selection.Kind() != types.MethodVal || !types.IsInterface(selection.Recv()) {
				return true
			}
			if isReadWriteShape(sel.Sel.Name, selection.Obj()) {
				return true
			}
			for _, arg := range v.Args {
				root := rootIdent(arg)
				if root == nil {
					continue
				}
				if lookup(root) != nil {
					pass.Reportf(arg.Pos(), "pool-backed buffer passed to interface method %s, which may retain it after release; copy first or annotate //lint:allow bufown (DESIGN §6.2)", types.ExprString(sel))
					break
				}
			}
		}
		return true
	})
}

// isReadWriteShape reports whether the interface method matches the
// io.Reader/io.Writer retention contract: named Read or Write with
// signature ([]byte) (int, error).
func isReadWriteShape(name string, obj types.Object) bool {
	if name != "Read" && name != "Write" {
		return false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 1 || sig.Results().Len() != 2 {
		return false
	}
	_, isSlice := sig.Params().At(0).Type().Underlying().(*types.Slice)
	return isSlice
}
