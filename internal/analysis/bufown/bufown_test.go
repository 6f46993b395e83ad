package bufown_test

import (
	"testing"

	"github.com/didclab/eta/internal/analysis/analysistest"
	"github.com/didclab/eta/internal/analysis/bufown"
)

func TestBufOwn(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), bufown.Analyzer, "bufownfix")
}

// TestBufOwnHelpers is the v1 blind-spot regression: buffers released
// by helpers (found by the in-package fixpoint) must not be flagged,
// and buffers from source helpers must still be released.
func TestBufOwnHelpers(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), bufown.Analyzer, "bufownhelper")
}

// TestBufOwnEscapes covers the internal/proto-only escape rules; the
// fixture path places the package under the data plane.
func TestBufOwnEscapes(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), bufown.Analyzer, "internal/proto/escfix")
}
