package transfer_test

// An external test package: the algorithms that drive the simulator
// live in internal/core, which imports this package.

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/didclab/eta/internal/core"
	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/testbed"
	"github.com/didclab/eta/internal/transfer"
)

// bookedSim is a Sim that reads the books of the session it last
// started on every tick: Background runs once per tick when set, and a
// cross-traffic fraction of 0 leaves the bandwidth bits unchanged.
type bookedSim struct {
	*transfer.Sim
	sess  transfer.Session
	ticks int
	check func(transfer.SimBooks)
}

func newBookedSim(tb testbed.Testbed, check func(transfer.SimBooks)) *bookedSim {
	b := &bookedSim{Sim: transfer.NewSim(tb), check: check}
	b.Background = func(time.Duration) float64 {
		b.ticks++
		b.check(transfer.ReadSimBooks(b.sess))
		return 0
	}
	return b
}

func (b *bookedSim) Start(ctx context.Context, plan transfer.Plan) (transfer.Session, error) {
	sess, err := b.Sim.Start(ctx, plan)
	b.sess = sess
	return sess, err
}

func (b *bookedSim) Run(ctx context.Context, plan transfer.Plan) (transfer.Report, error) {
	sess, err := b.Start(ctx, plan)
	if err != nil {
		return transfer.Report{}, err
	}
	return sess.Finish()
}

// TestSimQuietTicksExact: a tick whose event state is unchanged reuses
// the previous rates and power. A non-nil Background recomputes them
// every tick, and a cross-traffic fraction of 0 leaves the bandwidth
// bits unchanged, so every algorithm must report exactly the same run
// either way — on every testbed and several datasets.
//
// The recompute-every-tick run also checks the session's books against
// recomputation from scratch on every tick: Done, which reads the
// unfinished-file counter, agrees with the scan of every chunk and
// channel it replaced, and the counter equals the files no channel has
// finished; the power memo's watts are bit-equal to the watts computed
// with the memo cleared, including while GO's pool keeps a server that
// holds no channel at its base activity floor.
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
					bad, idlePool := 0, 0
					check := func(b transfer.SimBooks) {
						idlePool += b.IdlePool
						if bad < 5 && (b.Done != b.ScanDone || b.Unfinished != b.Files ||
							math.Float64bits(float64(b.Watts)) != math.Float64bits(float64(b.FreshWatts))) {
							bad++
							t.Errorf("books disagree with the scans: %+v", b)
						}
					}
					every := newBookedSim(tb, check)
					want, err := a.run(every, ds, tb)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(gated, want) {
						t.Errorf("gated run differs from recompute-every-tick run:\ngated %+v\nevery %+v", gated, want)
					}
					if every.ticks == 0 {
						t.Fatal("no tick read the books")
					}
					end := transfer.ReadSimBooks(every.sess)
					check(end)
					if !end.Done {
						t.Errorf("the last session is not done: %+v", end)
					}
					if a.name == "GO" && tb.ServersPerSite > 1 && idlePool == 0 {
						t.Error("no tick had a pool server holding no channel; the pool case went untested")
					}
				})
			}
		}
	}
}
