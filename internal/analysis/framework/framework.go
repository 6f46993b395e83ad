// Package framework is a minimal, dependency-free re-implementation of
// the parts of golang.org/x/tools/go/analysis this repository needs:
// an Analyzer value, a per-package Pass carrying syntax and type
// information, and position-anchored Diagnostics. The module depends
// on the standard library only, so x/tools is not available; the API
// mirrors go/analysis closely enough that the analyzers under
// internal/analysis/... would port to the real framework with
// mechanical changes only.
//
// A Pass sees one package and nothing else. go/analysis can also carry
// per-object facts from a package to its dependents; this framework
// has no such channel because no rule needs one (DESIGN.md §7.0):
// every interprocedural property an analyzer derives is a fixpoint
// over the functions of the package under analysis.
//
// # Suppression directives
//
// A diagnostic is suppressed by a directive comment of the form
//
//	//lint:allow <analyzer>[,<analyzer>...] [reason]
//
// e.g. `//lint:allow nodeterm wall-clock seam, injected in tests`.
// A directive trailing a statement covers that line; a directive on a
// line of its own covers the line directly below it. Every deliberate
// exception must name the analyzer it silences; the reason text is
// free-form but strongly encouraged (DESIGN.md §7).
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow directives. It must be a valid identifier.
	Name string
	// Doc is the one-paragraph description shown by -flags help.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Pass carries one package's syntax and types through an analyzer run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// NewInfo returns a types.Info with every map the analyzers consume
// populated, ready to pass to types.Config.Check.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// Run applies every analyzer to the package and returns the surviving
// diagnostics sorted by position, with //lint:allow-suppressed findings
// removed. Files must have been parsed with parser.ParseComments or
// the directives are invisible.
func Run(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	allows := collectAllows(fset, files)
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		for _, d := range pass.diags {
			if !allows.allowed(a.Name, fset.Position(d.Pos)) {
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := fset.Position(out[i].Pos), fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// allowRe matches the suppression directive; group 1 is the
// comma-separated analyzer list.
var allowRe = regexp.MustCompile(`^//\s*lint:allow\s+([A-Za-z0-9_,]+)(\s|$)`)

// allowSet records, per file and line, which analyzers are silenced.
type allowSet map[string]map[int]map[string]bool

func collectAllows(fset *token.FileSet, files []*ast.File) allowSet {
	set := make(allowSet)
	for _, f := range files {
		codeCols := firstCodeColumns(fset, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				posn := fset.Position(c.Slash)
				// A directive trailing code covers its own line; a
				// directive alone on its line covers the next one.
				covered := posn.Line
				if col, ok := codeCols[posn.Filename][posn.Line]; !ok || col > posn.Column {
					covered = posn.Line + 1
				}
				lines := set[posn.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					set[posn.Filename] = lines
				}
				names := lines[covered]
				if names == nil {
					names = make(map[string]bool)
					lines[covered] = names
				}
				for _, name := range strings.Split(m[1], ",") {
					names[name] = true
				}
			}
		}
	}
	return set
}

// firstCodeColumns maps, per file and line, the column where the first
// non-comment token starts, so directives can tell "trailing a
// statement" apart from "on a line of their own".
func firstCodeColumns(fset *token.FileSet, f *ast.File) map[string]map[int]int {
	cols := make(map[string]map[int]int)
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		switch n.(type) {
		case *ast.Comment, *ast.CommentGroup:
			return false
		}
		posn := fset.Position(n.Pos())
		lines := cols[posn.Filename]
		if lines == nil {
			lines = make(map[int]int)
			cols[posn.Filename] = lines
		}
		if old, ok := lines[posn.Line]; !ok || posn.Column < old {
			lines[posn.Line] = posn.Column
		}
		return true
	})
	return cols
}

// allowed reports whether analyzer name is suppressed at posn.
func (s allowSet) allowed(name string, posn token.Position) bool {
	lines := s[posn.Filename]
	if lines == nil {
		return false
	}
	return lines[posn.Line][name]
}

// NormalizePkgPath strips the decorations `go vet` puts on test
// variants so path policies match the underlying package:
// "p [p.test]" → "p", "p.test" → "p", "p_test" → "p".
func NormalizePkgPath(path string) string {
	if i := strings.IndexByte(path, ' '); i >= 0 {
		path = path[:i]
	}
	path = strings.TrimSuffix(path, ".test")
	path = strings.TrimSuffix(path, "_test")
	return path
}

// PathMatch reports whether the (normalized) package path falls under
// any of the given roots, where a root like "internal/core" matches
// the path segment-wise at any depth: "internal/core",
// "example.com/m/internal/core" and "internal/core/sub" all match,
// "internal/corex" does not.
func PathMatch(pkgPath string, roots []string) bool {
	path := NormalizePkgPath(pkgPath)
	for _, root := range roots {
		if path == root ||
			strings.HasSuffix(path, "/"+root) ||
			strings.HasPrefix(path, root+"/") ||
			strings.Contains(path, "/"+root+"/") {
			return true
		}
	}
	return false
}

// RootIdent returns the identifier at the base of an lvalue chain
// (x, x.f, x[i], (*x).f all root at x), or nil when the expression
// does not root at a plain identifier.
func RootIdent(e ast.Expr) *ast.Ident {
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
		default:
			return nil
		}
	}
}
