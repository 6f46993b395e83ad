package core

import (
	"context"
	"fmt"

	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/transfer"
)

// HTEEResult is an HTEE run's report plus the search outcome.
type HTEEResult struct {
	transfer.Report
	// ChosenConcurrency is the level the search settled on.
	ChosenConcurrency int
	// SearchEfficiency maps each probed concurrency level to its
	// measured efficiency score (see transfer.Sample.EfficiencyScore).
	SearchEfficiency map[int]float64
}

// HTEEOptions are ablation knobs for HTEE.
type HTEEOptions struct {
	// SearchStride is the concurrency increment during the search
	// phase; the paper uses 2 ("halves the search space"). 0 means 2.
	SearchStride int
}

func (o HTEEOptions) stride() int {
	if o.SearchStride < 1 {
		return 2
	}
	return o.SearchStride
}

// HTEE is the High Throughput Energy-Efficient transfer algorithm
// (Algorithm 2). It allocates channels to chunks by the
// log(size)·log(count) weights, then searches concurrency levels
// 1, 3, 5, … up to maxChannel — "instead of evaluating the performance
// of all concurrency levels in the search space, HTEE halves the search
// space by incrementing the concurrency level by two" — running each
// level for a five-second window, and finishes the transfer at the
// level with the best throughput/energy ratio.
func HTEE(ctx context.Context, exec transfer.Executor, ds dataset.Dataset, maxChannel int) (HTEEResult, error) {
	return HTEEWith(ctx, exec, ds, maxChannel, HTEEOptions{})
}

// HTEEWith is HTEE with ablation options.
func HTEEWith(ctx context.Context, exec transfer.Executor, ds dataset.Dataset, maxChannel int, opts HTEEOptions) (HTEEResult, error) {
	if maxChannel < 1 {
		return HTEEResult{}, fmt.Errorf("core: HTEE maxChannel %d < 1", maxChannel)
	}
	env := exec.Env()
	chunks := prepareChunks(env, ds)
	raw, weights := chunkWeights(chunks)
	alloc := allocateByWeight(1, raw)
	plan := transfer.Plan{
		Chunks:            planFromChunks(chunks, alloc, weights),
		ReallocOnComplete: true,
	}
	sess, err := exec.Start(ctx, plan)
	if err != nil {
		return HTEEResult{}, err
	}

	// Search phase (Algorithm 2 lines 14–22). The probe windows move
	// real data; nothing is wasted.
	efficiency := make(map[int]float64)
	best, bestEff := 1, -1.0
	for active := 1; active <= maxChannel && !sess.Done(); active += opts.stride() {
		if err := sess.SetTotalChannels(active); err != nil {
			return HTEEResult{}, err
		}
		sample, err := sess.Advance(transfer.SampleWindow)
		if err != nil {
			return HTEEResult{}, err
		}
		eff := sample.EfficiencyScore()
		if sample.EndSystemEnergy <= 0 {
			// No energy data (executor without an estimator): degrade
			// gracefully to a pure throughput search rather than
			// sticking at the first probed level.
			eff = sample.Throughput.Mbit() * 1e-9
		}
		efficiency[active] = eff
		if eff > bestEff {
			best, bestEff = active, eff
		}
	}

	// Run the remainder at the most efficient level (lines 23–24).
	if !sess.Done() {
		if err := sess.SetTotalChannels(best); err != nil {
			return HTEEResult{}, err
		}
	}
	r, err := sess.Finish()
	if err != nil {
		return HTEEResult{}, err
	}
	r.Algorithm = NameHTEE
	return HTEEResult{Report: r, ChosenConcurrency: best, SearchEfficiency: efficiency}, nil
}
