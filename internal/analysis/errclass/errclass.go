// Package errclass enforces the retry-path error taxonomy (DESIGN.md
// §9.3): errors are classified with errors.Is/As against typed
// sentinels (ErrStalled, ErrChecksumMismatch, net timeouts), never by
// identity or by their rendered text. Three rules:
//
//   - ==/!= against a sentinel: `err == io.EOF` misses every wrapped
//     error (`fmt.Errorf("...: %w", io.EOF)` compares unequal), so the
//     retry bookkeeping silently misclassifies the cause. The same
//     applies to `switch err { case ErrStalled: }`.
//   - string matching on err.Error(): comparing or substring-searching
//     the rendered message couples control flow to human-readable text
//     that wrapping, localization or a refactor will change.
//   - non-%w wrapping on retry paths (internal/proto): an error-typed
//     argument formatted with %v/%s strips the chain, so downstream
//     errors.Is — and therefore causeOf's stall/checksum/transport
//     split — stops seeing the sentinel.
//
// A sentinel is any package-scope variable of error type, declared in
// this package or an imported one. The type checker records the type
// of every imported object, so recognizing a sentinel needs no state
// carried between packages.
package errclass

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"github.com/didclab/eta/internal/analysis/framework"
)

// Analyzer is the errclass instance wired into cmd/vettool.
var Analyzer = &framework.Analyzer{
	Name: "errclass",
	Doc:  "classify errors with errors.Is/As against typed sentinels, not ==, err.Error() matching, or chain-stripping %v wraps",
	Run:  run,
}

// retryRoots scopes the %w rule to the data plane, where causeOf's
// errors.Is classification decides retry budgets.
var retryRoots = []string{"internal/proto"}

func run(pass *framework.Pass) error {
	if pass.TypesInfo == nil {
		return nil
	}
	inRetry := pass.Pkg != nil && framework.PathMatch(pass.Pkg.Path(), retryRoots)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.BinaryExpr:
				checkBinary(pass, v)
			case *ast.SwitchStmt:
				checkSwitch(pass, v)
			case *ast.CallExpr:
				checkStringsMatch(pass, v)
				if inRetry {
					checkWrap(pass, v)
				}
			}
			return true
		})
	}
	return nil
}

var errIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func implementsError(t types.Type) bool {
	return types.Implements(t, errIface) || types.Implements(types.NewPointer(t), errIface)
}

// sentinelObj resolves e to a package-scope error variable.
func sentinelObj(pass *framework.Pass, e ast.Expr) types.Object {
	var obj types.Object
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[v]
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[v.Sel]
	}
	vr, ok := obj.(*types.Var)
	if !ok || vr.Pkg() == nil || vr.Parent() != vr.Pkg().Scope() {
		return nil
	}
	if implementsError(vr.Type()) {
		return vr
	}
	return nil
}

func checkBinary(pass *framework.Pass, be *ast.BinaryExpr) {
	if be.Op != token.EQL && be.Op != token.NEQ {
		return
	}
	// err.Error() text comparison?
	if isErrorCall(pass, be.X) || isErrorCall(pass, be.Y) {
		pass.Reportf(be.Pos(), "don't string-match err.Error(); classify with errors.Is/As against typed sentinels (DESIGN §9.3)")
		return
	}
	// identity comparison against a sentinel?
	if isNil(pass, be.X) || isNil(pass, be.Y) {
		return
	}
	for _, side := range []ast.Expr{be.X, be.Y} {
		if s := sentinelObj(pass, side); s != nil {
			pass.Reportf(be.Pos(), "compare errors with errors.Is(err, %s), not %s: wrapped causes on the retry path would miss (DESIGN §9.3)", s.Name(), be.Op)
			return
		}
	}
}

func checkSwitch(pass *framework.Pass, sw *ast.SwitchStmt) {
	if sw.Tag == nil {
		return
	}
	if isErrorCall(pass, sw.Tag) {
		pass.Reportf(sw.Tag.Pos(), "don't string-match err.Error(); classify with errors.Is/As against typed sentinels (DESIGN §9.3)")
		return
	}
	tagType := pass.TypesInfo.TypeOf(sw.Tag)
	if tagType == nil || !implementsError(tagType) {
		return
	}
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			if s := sentinelObj(pass, e); s != nil {
				pass.Reportf(e.Pos(), "compare errors with errors.Is(err, %s), not a switch case: wrapped causes on the retry path would miss (DESIGN §9.3)", s.Name())
			}
		}
	}
}

// isErrorCall reports whether e is a call of the error interface's
// Error method.
func isErrorCall(pass *framework.Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" {
		return false
	}
	recvType := pass.TypesInfo.TypeOf(sel.X)
	return recvType != nil && implementsError(recvType)
}

func isNil(pass *framework.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.IsNil()
}

// stringsMatchers are the strings functions whose use on err.Error()
// output means text-based classification.
var stringsMatchers = map[string]bool{
	"Contains": true, "ContainsAny": true, "EqualFold": true,
	"HasPrefix": true, "HasSuffix": true, "Index": true,
}

func checkStringsMatch(pass *framework.Pass, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !stringsMatchers[sel.Sel.Name] {
		return
	}
	pkgIdent, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return
	}
	pkgName, ok := pass.TypesInfo.Uses[pkgIdent].(*types.PkgName)
	if !ok || pkgName.Imported().Path() != "strings" {
		return
	}
	for _, arg := range call.Args {
		if isErrorCall(pass, arg) {
			pass.Reportf(call.Pos(), "don't string-match err.Error(); classify with errors.Is/As against typed sentinels (DESIGN §9.3)")
			return
		}
	}
}

// checkWrap flags fmt.Errorf calls that format an error argument
// without %w inside the retry-path packages.
func checkWrap(pass *framework.Pass, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Errorf" {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return
	}
	if len(call.Args) < 2 {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	if strings.Contains(constant.StringVal(tv.Value), "%w") {
		return
	}
	for _, arg := range call.Args[1:] {
		t := pass.TypesInfo.TypeOf(arg)
		if t != nil && implementsError(t) && !isNil(pass, arg) {
			pass.Reportf(arg.Pos(), "error formatted without %%w strips the chain: downstream errors.Is misses the sentinel and the retry cause is misclassified; wrap the cause with %%w (DESIGN §9.3)")
			return
		}
	}
}
