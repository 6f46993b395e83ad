// Package analysistest runs a framework.Analyzer over fixture packages
// laid out x/tools-style under testdata/src/<pkgpath>/ and checks its
// diagnostics against `// want` comments in the fixtures:
//
//	sum += v // want `map iteration order`
//
// Each `// want` comment carries one or more Go-quoted regular
// expressions (back-quoted or double-quoted); every expression must be
// matched by a distinct diagnostic on that line, and every diagnostic
// must be expected by some expression.
//
// Fixture packages may import only the standard library — they are
// typechecked with the stdlib source importer so no pre-built export
// data is needed.
package analysistest

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/didclab/eta/internal/analysis/framework"
)

// TestData returns the absolute path of the calling test's testdata
// directory.
func TestData(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// Run analyzes each fixture package (a path under testdata/src) and
// reports mismatches between diagnostics and `// want` expectations as
// test errors.
func Run(t *testing.T, testdata string, a *framework.Analyzer, pkgpaths ...string) {
	t.Helper()
	for _, pkgpath := range pkgpaths {
		runOne(t, testdata, a, pkgpath)
	}
}

type expectation struct {
	re      *regexp.Regexp
	raw     string
	matched bool
}

func runOne(t *testing.T, testdata string, a *framework.Analyzer, pkgpath string) {
	t.Helper()
	dir := filepath.Join(testdata, "src", filepath.FromSlash(pkgpath))
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("%s: %v", pkgpath, err)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", pkgpath, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("%s: no fixture files in %s", pkgpath, dir)
	}

	var typeErrs []error
	tc := &types.Config{
		Importer: importer.ForCompiler(fset, "source", nil),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	info := framework.NewInfo()
	pkg, _ := tc.Check(pkgpath, fset, files, info)
	if len(typeErrs) > 0 {
		t.Fatalf("%s: fixture does not typecheck: %v", pkgpath, typeErrs[0])
	}

	diags, err := framework.Run(fset, files, pkg, info, []*framework.Analyzer{a})
	if err != nil {
		t.Fatalf("%s: %v", pkgpath, err)
	}

	wants := collectWants(t, fset, files)
	for _, d := range diags {
		posn := fset.Position(d.Pos)
		key := posKey{filepath.Base(posn.Filename), posn.Line}
		exps := wants[key]
		found := false
		for _, exp := range exps {
			if !exp.matched && exp.re.MatchString(d.Message) {
				exp.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: unexpected diagnostic: %s", key.file, key.line, d.Message)
		}
	}

	var keys []posKey
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for _, exp := range wants[k] {
			if !exp.matched {
				t.Errorf("%s:%d: expected diagnostic matching %s, got none", k.file, k.line, exp.raw)
			}
		}
	}
}

type posKey struct {
	file string
	line int
}

// wantRe captures the payload of a want comment; quotedRe pulls out
// each Go-quoted regular expression within it.
var (
	wantRe   = regexp.MustCompile(`//\s*want\s+(.*)$`)
	quotedRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")
)

func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[posKey][]*expectation {
	t.Helper()
	wants := make(map[posKey][]*expectation)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				posn := fset.Position(c.Slash)
				key := posKey{filepath.Base(posn.Filename), posn.Line}
				qs := quotedRe.FindAllString(m[1], -1)
				if len(qs) == 0 {
					t.Fatalf("%s:%d: malformed want comment %q", key.file, key.line, c.Text)
				}
				for _, q := range qs {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: bad quoted pattern %s: %v", key.file, key.line, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad regexp %s: %v", key.file, key.line, q, err)
					}
					wants[key] = append(wants[key], &expectation{re: re, raw: q})
				}
			}
		}
	}
	return wants
}
