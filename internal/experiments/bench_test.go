package experiments

import (
	"context"
	"testing"
	"time"

	"github.com/didclab/eta/internal/testbed"
)

// BenchmarkSimPass times one pass of perfbench's sim_sweep workload,
// the data behind Figs. 2–7: RunSweep and RunSLA on every testbed at
// DefaultSeed. One op is one pass, so with -benchmem B/op and allocs/op
// are per pass; ms/pass restates ns/op.
func BenchmarkSimPass(b *testing.B) {
	ctx := context.Background()
	beds := testbed.All()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, tb := range beds {
			if _, err := RunSweep(ctx, tb, DefaultSeed); err != nil {
				b.Fatalf("sweep on %s: %v", tb.Name, err)
			}
			if _, err := RunSLA(ctx, tb, DefaultSeed); err != nil {
				b.Fatalf("SLA on %s: %v", tb.Name, err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed())/float64(time.Millisecond)/float64(b.N), "ms/pass")
}
