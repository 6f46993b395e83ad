package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"github.com/didclab/eta/internal/testbed"
)

// The golden digests pin the simulator's full-precision output across
// commits. The CI diff against results/ compares rounded CSVs, so a
// last-ulp change in a report would slip past it; these would not.
// Each digest is the SHA-256 of fmt's Go-syntax form of RunSweep and
// RunSLA per testbed at DefaultSeed, hashed in testbed.All() order —
// the same formatting perfbench's per-pass digest uses. A change that
// is meant to alter simulator output must update them and say why.
const (
	goldenDigestAll     = "637b3ce9ddbddfccc7dafad8b962651321d732be4d92453d85b66b2a0e7c76d9"
	goldenDigestDIDCLAB = "0a4c4eb735ae46c030e86d5be3a4382ae8572d3393b57c210ffe00114f1ce039"
)

// simDigest hashes RunSweep and RunSLA on each testbed in order.
func simDigest(t *testing.T, beds []testbed.Testbed) string {
	t.Helper()
	ctx := context.Background()
	h := sha256.New()
	for _, tb := range beds {
		sw, err := RunSweep(ctx, tb, DefaultSeed)
		if err != nil {
			t.Fatalf("sweep on %s: %v", tb.Name, err)
		}
		sla, err := RunSLA(ctx, tb, DefaultSeed)
		if err != nil {
			t.Fatalf("SLA on %s: %v", tb.Name, err)
		}
		fmt.Fprintf(h, "%#v\n%#v\n", *sw, *sla)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestSimulatorGoldenDigest(t *testing.T) {
	if got := simDigest(t, []testbed.Testbed{testbed.DIDCLAB()}); got != goldenDigestDIDCLAB {
		t.Errorf("DIDCLAB digest %s, want %s", got, goldenDigestDIDCLAB)
	}
	if testing.Short() {
		return
	}
	if got := simDigest(t, testbed.All()); got != goldenDigestAll {
		t.Errorf("all-testbed digest %s, want %s", got, goldenDigestAll)
	}
}
