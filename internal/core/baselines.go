package core

import (
	"context"
	"fmt"

	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/sched"
	"github.com/didclab/eta/internal/transfer"
	"github.com/didclab/eta/internal/units"
)

// GUCOptions configure the globus-url-copy baseline. GUC "requires
// manual tuning of protocol parameters" and "does not allow to use
// different values of protocol parameters for different files in a
// dataset" (§3); the zero value is the paper's untuned base case
// (pipelining = parallelism = concurrency = 1).
type GUCOptions struct {
	Pipelining  int
	Parallelism int
	Concurrency int
}

func (o GUCOptions) withDefaults() GUCOptions {
	if o.Pipelining < 1 {
		o.Pipelining = 1
	}
	if o.Parallelism < 1 {
		o.Parallelism = 1
	}
	if o.Concurrency < 1 {
		o.Concurrency = 1
	}
	return o
}

// GUC transfers the whole dataset as a single chunk with one fixed
// parameter set.
func GUC(ctx context.Context, exec transfer.Executor, ds dataset.Dataset, opts GUCOptions) (transfer.Report, error) {
	opts = opts.withDefaults()
	chunk := dataset.Chunk{
		Class:       dataset.Large,
		Files:       ds.Files,
		Pipelining:  opts.Pipelining,
		Parallelism: opts.Parallelism,
	}
	plan := transfer.Plan{
		Chunks: []transfer.ChunkPlan{{
			Chunk:         chunk,
			Channels:      opts.Concurrency,
			AcceptRealloc: true,
		}},
		Sequential: true,
	}
	r, err := exec.Run(ctx, plan)
	if err != nil {
		return transfer.Report{}, err
	}
	r.Algorithm = NameGUC
	return r, nil
}

// Globus Online's fixed partitioning boundaries and per-class protocol
// parameters (§3: "GO uses fixed values to categorize files into groups
// (i.e. less than 50MB, larger than 250MB, and in between) and
// determine values of protocol parameters (e.g. set pipelining level 20
// and parallelism level 2 for small files)").
const (
	goSmallBoundary  = 50 * units.MB
	goMediumBoundary = 250 * units.MB
	goConcurrency    = 2
)

// GOOptions are ablation knobs for the Globus Online baseline.
type GOOptions struct {
	// PackSingleServer keeps GO's channels on one server per site
	// instead of spreading them over the pool — ablating the behaviour
	// that costs GO ~60% extra energy on XSEDE.
	PackSingleServer bool
}

// GO is the Globus Online baseline: fixed partitioning, fixed
// parameters, concurrency 2 regardless of the user's budget, chunks
// transferred one by one, and channels spread across all of the site's
// transfer servers (the behaviour that costs it ~60% extra energy on
// XSEDE).
func GO(ctx context.Context, exec transfer.Executor, ds dataset.Dataset) (transfer.Report, error) {
	return GOWith(ctx, exec, ds, GOOptions{})
}

// GOWith is GO with ablation options.
func GOWith(ctx context.Context, exec transfer.Executor, ds dataset.Dataset, opts GOOptions) (transfer.Report, error) {
	var small, medium, large []dataset.File
	for _, f := range ds.Files {
		switch {
		case f.Size < goSmallBoundary:
			small = append(small, f)
		case f.Size <= goMediumBoundary:
			medium = append(medium, f)
		default:
			large = append(large, f)
		}
	}
	var plans []transfer.ChunkPlan
	add := func(files []dataset.File, class dataset.Class, pipe, par int) {
		if len(files) == 0 {
			return
		}
		plans = append(plans, transfer.ChunkPlan{
			Chunk: dataset.Chunk{
				Class:       class,
				Files:       files,
				Pipelining:  pipe,
				Parallelism: par,
			},
			Channels:      goConcurrency,
			AcceptRealloc: true,
		})
	}
	add(small, dataset.Small, 20, 2)
	add(medium, dataset.Medium, 5, 2)
	add(large, dataset.Large, 1, 2)
	if len(plans) == 0 {
		return transfer.Report{}, fmt.Errorf("core: GO given empty dataset")
	}
	// GO runs a fixed total of two concurrent channels; sequential mode
	// carries them from chunk to chunk.
	for i := range plans {
		if i > 0 {
			plans[i].Channels = 0
		}
	}
	plan := transfer.Plan{
		Chunks:        plans,
		Sequential:    true,
		SpreadServers: !opts.PackSingleServer,
	}
	r, err := exec.Run(ctx, plan)
	if err != nil {
		return transfer.Report{}, err
	}
	r.Algorithm = NameGO
	return r, nil
}

// SC is the Single Chunk baseline: BDP-aware partitioning and parameter
// selection like the energy-aware algorithms, but chunks are
// "transferred one by one using the parameter combination specific to
// the chunk type" at the user-chosen concurrency.
func SC(ctx context.Context, exec transfer.Executor, ds dataset.Dataset, concurrency int) (transfer.Report, error) {
	if concurrency < 1 {
		return transfer.Report{}, fmt.Errorf("core: SC concurrency %d < 1", concurrency)
	}
	env := exec.Env()
	chunks := prepareChunks(env, ds)
	alloc := make([]int, len(chunks))
	alloc[0] = concurrency // sequential mode moves them chunk to chunk
	plan := transfer.Plan{
		Chunks:     planFromChunks(chunks, alloc, nil),
		Sequential: true,
	}
	r, err := exec.Run(ctx, plan)
	if err != nil {
		return transfer.Report{}, err
	}
	r.Algorithm = NameSC
	return r, nil
}

// ProMCOptions are ablation knobs for the Pro-active Multi Chunk
// baseline.
type ProMCOptions struct {
	// PipeliningOverride forces every chunk's pipelining depth instead
	// of the ⌈BDP/avgFileSize⌉ formula (1 ablates pipelining away).
	PipeliningOverride int
}

// ProMC is the Pro-active Multi Chunk baseline: all chunks transferred
// simultaneously with weight-proportional channel allocation, which
// "alleviates the effect of low transfer throughput of small chunks
// over the whole dataset". It is the throughput reference the
// energy-aware algorithms are compared against.
func ProMC(ctx context.Context, exec transfer.Executor, ds dataset.Dataset, concurrency int) (transfer.Report, error) {
	return ProMCWith(ctx, exec, ds, concurrency, ProMCOptions{})
}

// ProMCWith is ProMC with ablation options.
func ProMCWith(ctx context.Context, exec transfer.Executor, ds dataset.Dataset, concurrency int, opts ProMCOptions) (transfer.Report, error) {
	if concurrency < 1 {
		return transfer.Report{}, fmt.Errorf("core: ProMC concurrency %d < 1", concurrency)
	}
	env := exec.Env()
	chunks := prepareChunks(env, ds)
	if opts.PipeliningOverride > 0 {
		for i := range chunks {
			chunks[i].Pipelining = opts.PipeliningOverride
		}
	}
	raw, weights := chunkWeights(chunks)
	alloc := allocateByWeight(concurrency, raw)
	plan := transfer.Plan{
		Chunks:            planFromChunks(chunks, alloc, weights),
		ReallocOnComplete: true,
	}
	r, err := exec.Run(ctx, plan)
	if err != nil {
		return transfer.Report{}, err
	}
	r.Algorithm = NameProMC
	return r, nil
}

// BFResult is the brute-force search outcome.
type BFResult struct {
	// Best is the concurrency level with the highest whole-transfer
	// throughput/energy ratio.
	Best int
	// Reports holds the full run at every probed level.
	Reports map[int]transfer.Report
}

// BestReport returns the winning run's report.
func (r BFResult) BestReport() transfer.Report { return r.Reports[r.Best] }

// BFOptions configure the brute-force search.
type BFOptions struct {
	// Workers bounds how many concurrency levels are evaluated at
	// once; values < 1 mean GOMAXPROCS. Use 1 when the executor drives
	// a real link, where concurrent probes would distort each other's
	// measurements.
	Workers int
}

// BF is the brute-force reference (§3): "a revised version of the HTEE
// algorithm in a way that it skips the search phase and runs the
// transfer with pre-defined concurrency levels", repeated for every
// level 1..maxChannel; the best throughput/energy ratio found is the
// ideal HTEE is scored against.
//
// Every level is an independent run on a fresh executor from mk, so
// the levels are evaluated concurrently; results are assembled by
// level, which keeps the outcome identical to a serial sweep.
func BF(ctx context.Context, mk func() transfer.Executor, ds dataset.Dataset, maxChannel int) (BFResult, error) {
	return BFWith(ctx, mk, ds, maxChannel, BFOptions{})
}

// BFWith is BF with search options.
func BFWith(ctx context.Context, mk func() transfer.Executor, ds dataset.Dataset, maxChannel int, opts BFOptions) (BFResult, error) {
	if maxChannel < 1 {
		return BFResult{}, fmt.Errorf("core: BF maxChannel %d < 1", maxChannel)
	}
	reports, err := sched.Map(ctx, opts.Workers, maxChannel, func(ctx context.Context, i int) (transfer.Report, error) {
		c := i + 1
		r, err := ProMC(ctx, mk(), ds, c)
		if err != nil {
			return transfer.Report{}, fmt.Errorf("core: BF at concurrency %d: %w", c, err)
		}
		r.Algorithm = NameBF
		return r, nil
	})
	if err != nil {
		return BFResult{}, err
	}
	result := BFResult{Reports: make(map[int]transfer.Report, maxChannel)}
	bestEff := -1.0
	for i, r := range reports {
		c := i + 1
		result.Reports[c] = r
		if eff := r.Efficiency(); eff > bestEff {
			bestEff = eff
			result.Best = c
		}
	}
	return result, nil
}
