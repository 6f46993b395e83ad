// Package unitchecker lets a multichecker binary built from
// internal/analysis/framework analyzers run under the `go vet
// -vettool=` protocol, standard library only (the x/tools unitchecker
// is unavailable offline). cmd/go drives the tool in three ways:
//
//   - `tool -V=full` must print a version line whose first two fields
//     are "<progname> version"; cmd/go hashes it into the build cache
//     key, so the line embeds a digest of the executable itself.
//   - `tool -flags` must print a JSON description of the tool's flags
//     (this tool exposes none beyond the protocol ones).
//   - `tool <unit>.cfg` handles one compilation unit described by the
//     JSON config. The tool first writes the unit's VetxOutput, which
//     cmd/go requires on every exit path; it is always empty, since no
//     analyzer keeps state across packages. A VetxOnly unit — a
//     dependency cmd/go vets only to obtain that output — is done at
//     that point. Any other unit has its files parsed, typechecked
//     against the export data cmd/go already built for the imports,
//     and run through every analyzer, with findings printed to stderr.
//
// Exit status: 0 clean, 1 operational error, 2 diagnostics reported.
//
// ETA_LINT_JSON adds a machine-readable side channel without
// disturbing the protocol: it collects diagnostics as JSONL (consumed
// by scripts/lint.sh and the CI artifact), appending so parallel vet
// workers can share one file.
package unitchecker

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"github.com/didclab/eta/internal/analysis/framework"
)

// Config mirrors the JSON cmd/go writes for each vet unit (see
// cmd/go/internal/work's vetConfig). Fields this driver does not
// consume are kept so the full file round-trips during debugging.
type Config struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ModulePath                string
	ModuleVersion             string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Main is the entry point for a vettool binary: it interprets the
// protocol flags and never returns.
func Main(analyzers ...*framework.Analyzer) {
	progname := strings.TrimSuffix(filepath.Base(os.Args[0]), ".exe")
	log.SetFlags(0)
	log.SetPrefix(progname + ": ")

	args := os.Args[1:]
	for len(args) > 0 && strings.HasPrefix(args[0], "-") {
		switch arg := args[0]; {
		case arg == "-V=full":
			fmt.Printf("%s version devel buildID=%02x\n", progname, selfDigest())
			os.Exit(0)
		case arg == "-V":
			fmt.Printf("%s version devel\n", progname)
			os.Exit(0)
		case arg == "-flags":
			// No tool-specific flags; cmd/go only needs valid JSON.
			fmt.Println("[]")
			os.Exit(0)
		case arg == "-help" || arg == "--help" || arg == "-h":
			fmt.Fprintf(os.Stderr, "usage: go vet -vettool=$(which %s) ./...\n\nanalyzers:\n", progname)
			for _, a := range analyzers {
				fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, firstLine(a.Doc))
			}
			os.Exit(0)
		default:
			log.Fatalf("unrecognized flag %s (protocol flags: -V=full, -flags)", arg)
		}
	}
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		log.Fatalf("this tool speaks the `go vet -vettool` protocol; run it via:\n\tgo vet -vettool=$(which %s) ./...", progname)
	}

	diags, err := Run(args[0], analyzers)
	if err != nil {
		log.Fatal(err) // exit 1
	}
	if len(diags) > 0 {
		os.Exit(2)
	}
	os.Exit(0)
}

// Run analyzes the unit described by cfgFile, printing diagnostics to
// stderr and returning them.
func Run(cfgFile string, analyzers []*framework.Analyzer) ([]framework.Diagnostic, error) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		return nil, err
	}
	cfg := new(Config)
	if err := json.Unmarshal(data, cfg); err != nil {
		return nil, fmt.Errorf("parsing vet config %s: %w", cfgFile, err)
	}

	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			return nil, err
		}
	}
	if cfg.VetxOnly {
		return nil, nil
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return nil, nil
			}
			return nil, err
		}
		files = append(files, f)
	}

	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	imp := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		// The typechecker asks with the source-level import path; the
		// config maps it to the unit ID whose export data cmd/go built.
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})

	var typeErrs []error
	tc := &types.Config{
		Importer:  imp,
		GoVersion: cfg.GoVersion,
		Error:     func(err error) { typeErrs = append(typeErrs, err) },
	}
	info := framework.NewInfo()
	pkg, _ := tc.Check(cfg.ImportPath, fset, files, info)
	if len(typeErrs) > 0 {
		if cfg.SucceedOnTypecheckFailure {
			return nil, nil
		}
		return nil, fmt.Errorf("typechecking %s: %v", cfg.ImportPath, typeErrs[0])
	}

	diags, err := framework.Run(fset, files, pkg, info, analyzers)
	if err != nil {
		return nil, err
	}
	logDiagnostics(cfg, fset, diags)
	cwd, _ := os.Getwd()
	for _, d := range diags {
		posn := fset.Position(d.Pos)
		name := posn.Filename
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
				name = rel
			}
		}
		fmt.Fprintf(os.Stderr, "%s:%d:%d: %s (%s)\n", name, posn.Line, posn.Column, d.Message, d.Analyzer)
	}
	return diags, nil
}

// lintDiag is the machine-readable diagnostic record lint.sh collects
// into lint.json for CI annotation.
type lintDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	Unit     string `json:"unit"`
}

// logDiagnostics appends one JSON object per diagnostic (JSONL) to
// $ETA_LINT_JSON.
func logDiagnostics(cfg *Config, fset *token.FileSet, diags []framework.Diagnostic) {
	path := os.Getenv("ETA_LINT_JSON")
	if path == "" || len(diags) == 0 {
		return
	}
	var b strings.Builder
	for _, d := range diags {
		posn := fset.Position(d.Pos)
		rec, err := json.Marshal(lintDiag{
			File:     posn.Filename,
			Line:     posn.Line,
			Col:      posn.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
			Unit:     cfg.ImportPath,
		})
		if err != nil {
			continue
		}
		b.Write(rec)
		b.WriteByte('\n')
	}
	appendFile(path, b.String())
}

func appendFile(path, s string) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return
	}
	defer f.Close()
	io.WriteString(f, s)
}

// selfDigest hashes the tool binary so rebuilding the tool invalidates
// cmd/go's cached vet results.
func selfDigest() [sha256.Size]byte {
	exe, err := os.Executable()
	if err != nil {
		return [sha256.Size]byte{}
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return [sha256.Size]byte{}
	}
	return sha256.Sum256(data)
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
