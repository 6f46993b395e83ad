// Command vettool is the project's multichecker: a `go vet -vettool`
// binary bundling the invariant analyzers under internal/analysis that
// turn the determinism, deadline-I/O, error-taxonomy and
// telemetry-hygiene rules of DESIGN.md §6–§9 into machine-checked CI
// gates (scripts/lint.sh). Each analyzer sees one package at a time;
// interprocedural properties (deadline-disciplined forwarders) are
// fixpoints over that package's functions, and dependency units are
// skipped (DESIGN.md §7.0).
//
// The analyzer list below is mirrored in DESIGN.md §7.1; CI asserts
// the two stay in sync.
//
// Usage:
//
//	go build -o /tmp/vettool ./cmd/vettool
//	go vet -vettool=/tmp/vettool ./...
package main

import (
	"github.com/didclab/eta/internal/analysis/deadlineio"
	"github.com/didclab/eta/internal/analysis/errclass"
	"github.com/didclab/eta/internal/analysis/framework"
	"github.com/didclab/eta/internal/analysis/mapfloatsum"
	"github.com/didclab/eta/internal/analysis/metriclint"
	"github.com/didclab/eta/internal/analysis/nakedgo"
	"github.com/didclab/eta/internal/analysis/nodeterm"
	"github.com/didclab/eta/internal/analysis/unitchecker"
)

// analyzers is the full suite; kept as a slice so tests can count it
// against the DESIGN §7.1 table.
var analyzers = []*framework.Analyzer{
	mapfloatsum.Analyzer,
	nodeterm.Analyzer,
	nakedgo.Analyzer,
	deadlineio.Analyzer,
	errclass.Analyzer,
	metriclint.Analyzer,
}

func main() {
	unitchecker.Main(analyzers...)
}
