package framework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

func TestNormalizePkgPath(t *testing.T) {
	cases := map[string]string{
		"example.com/m/internal/core":                                    "example.com/m/internal/core",
		"example.com/m/internal/core [example.com/m/internal/core.test]": "example.com/m/internal/core",
		"example.com/m/internal/core.test":                               "example.com/m/internal/core",
		"example.com/m/internal/core_test":                               "example.com/m/internal/core",
	}
	for in, want := range cases {
		if got := NormalizePkgPath(in); got != want {
			t.Errorf("NormalizePkgPath(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPathMatch(t *testing.T) {
	roots := []string{"internal/power"}
	for path, want := range map[string]bool{
		"internal/power":                  true,
		"example.com/m/internal/power":    true,
		"internal/power/sub":              true,
		"example.com/m/internal/netpower": false,
		"internal/powerx":                 false,
	} {
		if got := PathMatch(path, roots); got != want {
			t.Errorf("PathMatch(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestAllowDirective verifies same-line and preceding-line suppression
// and that unrelated analyzers stay unsuppressed.
func TestAllowDirective(t *testing.T) {
	const src = `package p

func f() {
	g() // flagged: no directive
	//lint:allow demo preceding-line form
	g()
	g() //lint:allow demo same-line form
	g() //lint:allow other wrong analyzer
}

func g() {}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	demo := &Analyzer{
		Name: "demo",
		Doc:  "flags every call to g",
		Run: func(pass *Pass) error {
			ast.Inspect(pass.Files[0], func(n ast.Node) bool {
				if c, ok := n.(*ast.CallExpr); ok {
					if id, ok := c.Fun.(*ast.Ident); ok && id.Name == "g" {
						pass.Reportf(c.Pos(), "call to g")
					}
				}
				return true
			})
			return nil
		},
	}
	diags, err := Run(fset, []*ast.File{file}, nil, nil, []*Analyzer{demo})
	if err != nil {
		t.Fatal(err)
	}
	var lines []int
	for _, d := range diags {
		lines = append(lines, fset.Position(d.Pos).Line)
	}
	want := []int{4, 8}
	if len(lines) != len(want) {
		t.Fatalf("diagnostics on lines %v, want %v", lines, want)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("diagnostics on lines %v, want %v", lines, want)
		}
	}
}
