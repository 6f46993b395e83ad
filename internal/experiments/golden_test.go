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
	goldenDigestAll     = "86f54b9b6c38efe12d01643329e77c5d5fd492dd7e232151ea808779e73f4eb4"
	goldenDigestDIDCLAB = "d753496d4c1b52c0a8b6e6bdfbc80657b4a2562ac2db40b99c9091c897cb625e"
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
