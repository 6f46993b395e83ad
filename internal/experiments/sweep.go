// Package experiments reproduces every table and figure of the paper's
// evaluation (§3–§4): the concurrency sweeps of Figs. 2–4, the SLA runs
// of Figs. 5–7, the rate-power curves of Fig. 8, the end-system vs.
// network split of Fig. 10, and the §2.2 power-model validation table.
// Each experiment returns a structured result that can be rendered as
// markdown/CSV and checked against the paper's qualitative claims.
package experiments

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"github.com/didclab/eta/internal/core"
	"github.com/didclab/eta/internal/sched"
	"github.com/didclab/eta/internal/testbed"
	"github.com/didclab/eta/internal/transfer"
)

// SweepLevels are the x-axis concurrency levels of Figs. 2–4.
var SweepLevels = []int{1, 2, 4, 6, 8, 10, 12}

// DefaultSeed makes every experiment reproducible.
const DefaultSeed = 20150615

// Sweep is the Figs. 2–4 experiment: every algorithm across the
// concurrency levels of one testbed.
type Sweep struct {
	Testbed string
	Levels  []int
	// Reports maps algorithm → concurrency → completed run. GUC and GO
	// ignore concurrency; their single run is replicated across levels
	// the way the paper draws them as flat lines.
	Reports map[string]map[int]transfer.Report
	// HTEE holds the adaptive run per max-concurrency level.
	HTEE map[int]core.HTEEResult
	// BF is the brute-force reference over 1..BFMaxConcurrency.
	BF core.BFResult
}

// RunSweep executes the full Fig. 2/3/4 experiment on tb.
//
// Every (algorithm × level) cell is an independent simulation with its
// own transfer.NewSim, so the cells are fanned out on a bounded worker
// pool. Each worker writes into a pre-indexed slot keyed by its cell —
// never appending in completion order — which keeps the result
// bit-identical to a serial run (asserted by TestRunSweepDeterminism).
// The one derived column is ProMC at levels up to tb.BFMaxConcurrency:
// it is BF's run at that level, relabelled.
func RunSweep(ctx context.Context, tb testbed.Testbed, seed int64) (*Sweep, error) {
	return runSweepWorkers(ctx, tb, seed, 0)
}

// RunSweepSerial is RunSweep constrained to one worker — the serial
// baseline the engine's speedup is benchmarked against.
func RunSweepSerial(ctx context.Context, tb testbed.Testbed, seed int64) (*Sweep, error) {
	return runSweepWorkers(ctx, tb, seed, 1)
}

func runSweepWorkers(ctx context.Context, tb testbed.Testbed, seed int64, workers int) (*Sweep, error) {
	ds := tb.Dataset(seed)
	s := &Sweep{
		Testbed: tb.Name,
		Levels:  append([]int(nil), SweepLevels...),
		Reports: make(map[string]map[int]transfer.Report),
		HTEE:    make(map[int]core.HTEEResult),
	}
	sim := func() transfer.Executor { return transfer.NewSim(tb) }

	// Per-cell result slots, indexed by level position. GUC, GO and BF
	// each run once; the per-level algorithms get one slot per level.
	var guc, gor transfer.Report
	var bf core.BFResult
	scs := make([]transfer.Report, len(s.Levels))
	mines := make([]transfer.Report, len(s.Levels))
	promcs := make([]transfer.Report, len(s.Levels))
	htees := make([]core.HTEEResult, len(s.Levels))

	p := sched.New(ctx, workers)
	p.Go(func(ctx context.Context) error {
		r, err := core.GUC(ctx, sim(), ds, core.GUCOptions{})
		if err != nil {
			return fmt.Errorf("GUC: %w", err)
		}
		guc = r
		return nil
	})
	p.Go(func(ctx context.Context) error {
		r, err := core.GO(ctx, sim(), ds)
		if err != nil {
			return fmt.Errorf("GO: %w", err)
		}
		gor = r
		return nil
	})
	for i, level := range s.Levels {
		i, level := i, level
		p.Go(func(ctx context.Context) error {
			r, err := core.SC(ctx, sim(), ds, level)
			if err != nil {
				return fmt.Errorf("SC@%d: %w", level, err)
			}
			scs[i] = r
			return nil
		})
		p.Go(func(ctx context.Context) error {
			r, err := core.MinE(ctx, sim(), ds, level)
			if err != nil {
				return fmt.Errorf("MinE@%d: %w", level, err)
			}
			mines[i] = r
			return nil
		})
		// BF runs this same deterministic ProMC at every level up to its
		// cap; the sweep reuses that run rather than simulating it twice.
		if level > tb.BFMaxConcurrency {
			p.Go(func(ctx context.Context) error {
				r, err := core.ProMC(ctx, sim(), ds, level)
				if err != nil {
					return fmt.Errorf("ProMC@%d: %w", level, err)
				}
				promcs[i] = r
				return nil
			})
		}
		p.Go(func(ctx context.Context) error {
			r, err := core.HTEE(ctx, sim(), ds, level)
			if err != nil {
				return fmt.Errorf("HTEE@%d: %w", level, err)
			}
			htees[i] = r
			return nil
		})
	}
	p.Go(func(ctx context.Context) error {
		r, err := core.BFWith(ctx, sim, ds, tb.BFMaxConcurrency, core.BFOptions{Workers: workers})
		if err != nil {
			return fmt.Errorf("BF: %w", err)
		}
		bf = r
		return nil
	})
	if err := p.Wait(); err != nil {
		return nil, err
	}

	// ProMC at a level BF covered is BF's run, with its own Samples and
	// Chunks so that no two reports share a backing array.
	for i, level := range s.Levels {
		if level <= tb.BFMaxConcurrency {
			r := bf.Reports[level]
			r.Algorithm = core.NameProMC
			r.Samples = slices.Clone(r.Samples)
			r.Chunks = slices.Clone(r.Chunks)
			promcs[i] = r
		}
	}

	// Deterministic assembly in level order.
	put := func(algo string, level int, r transfer.Report) {
		if s.Reports[algo] == nil {
			s.Reports[algo] = make(map[int]transfer.Report)
		}
		s.Reports[algo][level] = r
	}
	for i, level := range s.Levels {
		put(core.NameGUC, level, guc)
		put(core.NameGO, level, gor)
		put(core.NameSC, level, scs[i])
		put(core.NameMinE, level, mines[i])
		put(core.NameProMC, level, promcs[i])
		put(core.NameHTEE, level, htees[i].Report)
		s.HTEE[level] = htees[i]
	}
	s.BF = bf
	return s, nil
}

// Algorithms returns the sweep's algorithm names in the paper's legend
// order (GUC, GO, SC, MinE, ProMC, HTEE).
func (s *Sweep) Algorithms() []string {
	order := []string{core.NameGUC, core.NameGO, core.NameSC, core.NameMinE, core.NameProMC, core.NameHTEE}
	var out []string
	for _, a := range order {
		if _, ok := s.Reports[a]; ok {
			out = append(out, a)
		}
	}
	// Anything extra (future algorithms) in stable order.
	known := make(map[string]bool, len(order))
	for _, o := range order {
		known[o] = true
	}
	var extra []string
	for a := range s.Reports {
		if !known[a] {
			extra = append(extra, a)
		}
	}
	sort.Strings(extra)
	return append(out, extra...)
}

// BestEfficiency returns the highest whole-run throughput/energy ratio
// the brute-force search found — the paper's "best possible value"
// all panel-(c) bars are normalized against.
func (s *Sweep) BestEfficiency() float64 {
	return s.BF.BestReport().Efficiency()
}

// NormalizedEfficiency returns report r's efficiency relative to the
// brute-force best (the y-axis of Figs. 2c/3c/4c).
func (s *Sweep) NormalizedEfficiency(r transfer.Report) float64 {
	best := s.BestEfficiency()
	if best <= 0 {
		return 0
	}
	return r.Efficiency() / best
}
