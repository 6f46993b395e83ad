// Package metriclint enforces the obs naming rule (DESIGN.md §8) at
// the call sites of the obs API — matched by receiver type name
// (Registry, Log), so fixtures need no imports and the rule survives
// the package being mocked: metric names (Registry.Counter, Gauge,
// Histogram, Family), family label keys, event types (Log.Emit) and
// Emit kv keys must be Go constant expressions whose value is a
// snake_case string. The registry is register-once, and a name built
// at runtime either explodes it or aliases two meanings onto one
// series. The rule reads the type checker's constant value and follows
// no variables: a name forwarded through a variable or parameter is
// flagged even when every source is constant.
//
// Label values need no rule: an obs.Family declares its value set when
// it is registered and counts anything else under its last value, so
// its cardinality is bounded by construction.
//
// internal/obs itself is exempt: the implementation and its tests
// construct names dynamically on purpose.
package metriclint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"

	"github.com/didclab/eta/internal/analysis/framework"
)

// Analyzer is the metriclint instance wired into cmd/vettool.
var Analyzer = &framework.Analyzer{
	Name: "metriclint",
	Doc:  "obs naming: metric, label-key and event names are constant snake_case strings (register-once)",
	Run:  run,
}

var snakeRe = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

func run(pass *framework.Pass) error {
	if pass.TypesInfo == nil || pass.Pkg == nil {
		return nil
	}
	if framework.PathMatch(pass.Pkg.Path(), []string{"internal/obs"}) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkCall(pass, call)
			}
			return true
		})
	}
	return nil
}

// checkCall checks the name arguments of a Registry or Log method call:
// the metric name (plus the label key for Family), or the event type
// and the kv keys at even offsets after it.
func checkCall(pass *framework.Pass, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return
	}
	switch recvName(pass, sel) + "." + sel.Sel.Name {
	case "Registry.Counter", "Registry.Gauge", "Registry.Histogram":
		checkName(pass, call.Args[0], "metric name")
	case "Registry.Family":
		checkName(pass, call.Args[0], "metric name")
		if len(call.Args) > 1 {
			checkName(pass, call.Args[1], "label key")
		}
	case "Log.Emit":
		checkName(pass, call.Args[0], "event type")
		if !call.Ellipsis.IsValid() { // spread kv: keys unverifiable
			for i := 1; i < len(call.Args); i += 2 {
				checkName(pass, call.Args[i], "event key")
			}
		}
	}
}

// recvName returns the receiver's named-type name when sel is a method
// value, "" otherwise.
func recvName(pass *framework.Pass, sel *ast.SelectorExpr) string {
	selection := pass.TypesInfo.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return ""
	}
	recv := selection.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	if named, ok := recv.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// checkName requires e to be a constant snake_case string.
func checkName(pass *framework.Pass, e ast.Expr, what string) {
	tv := pass.TypesInfo.Types[e]
	if tv.Value == nil || tv.Value.Kind() != constant.String {
		pass.Reportf(e.Pos(), "%s must be a compile-time constant: dynamic names break register-once and explode the registry (DESIGN §8)", what)
		return
	}
	if s := constant.StringVal(tv.Value); !snakeRe.MatchString(s) {
		pass.Reportf(e.Pos(), "%s %q is not snake_case (want ^[a-z][a-z0-9]*(_[a-z0-9]+)*$, DESIGN §8)", what, s)
	}
}
