package transfer_test

// An external test package: the algorithms that drive the simulator
// live in internal/core, which imports this package.

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/didclab/eta/internal/core"
	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/testbed"
	"github.com/didclab/eta/internal/transfer"
)

// TestSimQuietTicksExact: a tick whose event state is unchanged reuses
// the previous rates and power. A non-nil Background recomputes them
// every tick, and a cross-traffic fraction of 0 leaves the bandwidth
// bits unchanged, so every algorithm must report exactly the same run
// either way — on every testbed and several datasets.
func TestSimQuietTicksExact(t *testing.T) {
	ctx := context.Background()
	type algo struct {
		name string
		run  func(transfer.Executor, dataset.Dataset, testbed.Testbed) (any, error)
	}
	algos := []algo{
		{"GUC", func(e transfer.Executor, ds dataset.Dataset, _ testbed.Testbed) (any, error) {
			return core.GUC(ctx, e, ds, core.GUCOptions{})
		}},
		{"GO", func(e transfer.Executor, ds dataset.Dataset, _ testbed.Testbed) (any, error) {
			return core.GO(ctx, e, ds)
		}},
		{"SC", func(e transfer.Executor, ds dataset.Dataset, _ testbed.Testbed) (any, error) {
			return core.SC(ctx, e, ds, 4)
		}},
		{"MinE", func(e transfer.Executor, ds dataset.Dataset, _ testbed.Testbed) (any, error) {
			return core.MinE(ctx, e, ds, 8)
		}},
		{"ProMC", func(e transfer.Executor, ds dataset.Dataset, _ testbed.Testbed) (any, error) {
			return core.ProMC(ctx, e, ds, 6)
		}},
		{"HTEE", func(e transfer.Executor, ds dataset.Dataset, _ testbed.Testbed) (any, error) {
			return core.HTEE(ctx, e, ds, 12)
		}},
		{"SLAEE", func(e transfer.Executor, ds dataset.Dataset, tb testbed.Testbed) (any, error) {
			ref, err := core.ProMC(ctx, transfer.NewSim(tb), ds, tb.SLARefConcurrency)
			if err != nil {
				return nil, err
			}
			return core.SLAEE(ctx, e, ds, ref.Throughput, 0.8, tb.MaxConcurrency)
		}},
	}
	for _, tb := range testbed.All() {
		for _, seed := range []int64{1, 2, 20150615} {
			ds := tb.Dataset(seed)
			for _, a := range algos {
				t.Run(fmt.Sprintf("%s/%d/%s", tb.Name, seed, a.name), func(t *testing.T) {
					gated, err := a.run(transfer.NewSim(tb), ds, tb)
					if err != nil {
						t.Fatal(err)
					}
					every := transfer.NewSim(tb)
					every.Background = func(time.Duration) float64 { return 0 }
					want, err := a.run(every, ds, tb)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(gated, want) {
						t.Errorf("gated run differs from recompute-every-tick run:\ngated %+v\nevery %+v", gated, want)
					}
				})
			}
		}
	}
}
