package core

import (
	"context"
	"fmt"
	"math"

	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/transfer"
	"github.com/didclab/eta/internal/units"
)

// SLAResult is an SLAEE run's report plus SLA accounting.
type SLAResult struct {
	transfer.Report
	// Target is the throughput promised by the SLA.
	Target units.Rate
	// FinalConcurrency is the channel count in use when the transfer
	// finished.
	FinalConcurrency int
	// Rearranged reports whether the algorithm had to reassign
	// channels toward Large chunks after reaching maxChannel.
	Rearranged bool
}

// Deviation returns the SLA deviation ratio in percent,
// (achieved − target)/target · 100, the metric of Figs. 5c/6c/7c.
// Positive values are overshoot.
func (r SLAResult) Deviation() float64 {
	if r.Target <= 0 {
		return 0
	}
	return (float64(r.Throughput) - float64(r.Target)) / float64(r.Target) * 100
}

// AbsDeviation returns |Deviation()|.
func (r SLAResult) AbsDeviation() float64 { return math.Abs(r.Deviation()) }

// slaeeTolerance is the overshoot band used when correcting the
// initial proportional jump. Window acceptance itself is strict
// (window ≥ target): the whole-run average is dragged below the
// steady-state window rate by the ramp-up phase, so accepting windows
// below target would systematically miss the SLA.
const slaeeTolerance = 0.05

// slaeeLowerMargin is how far above target a window must be before the
// control loop sheds a channel: one concurrency step changes
// throughput coarsely, so shedding too eagerly would dip below the
// SLA and force a climb right back.
const slaeeLowerMargin = 0.12

// slaeeNegativeResponse is the relative throughput drop after a raise
// that marks the path as contention-bound (more channels make it
// slower, the single-disk LAN regime of Fig. 4). Ordinary WAN window
// noise stays well under this.
const slaeeNegativeResponse = 0.07

// SLAEE is the SLA-based Energy-Efficient transfer algorithm
// (Algorithm 3): reach `slaLevel` (a fraction of maxThroughput, e.g.
// 0.9) with as few channels as possible, because fewer channels means
// less energy. It starts at concurrency 1, jumps proportionally to the
// measured shortfall (line 11), then climbs one channel at a time;
// once at maxChannel it re-arranges channels so Large chunks receive
// more than one (line 18).
func SLAEE(ctx context.Context, exec transfer.Executor, ds dataset.Dataset,
	maxThroughput units.Rate, slaLevel float64, maxChannel int) (SLAResult, error) {
	if maxChannel < 1 {
		return SLAResult{}, fmt.Errorf("core: SLAEE maxChannel %d < 1", maxChannel)
	}
	if slaLevel <= 0 || slaLevel > 1 {
		return SLAResult{}, fmt.Errorf("core: SLA level %v outside (0,1]", slaLevel)
	}
	if maxThroughput <= 0 {
		return SLAResult{}, fmt.Errorf("core: non-positive max throughput %v", maxThroughput)
	}
	env := exec.Env()
	chunks := prepareChunks(env, ds)
	raw, weights := chunkWeights(chunks)
	target := units.Rate(float64(maxThroughput) * slaLevel)

	plan := transfer.Plan{
		Chunks:            planFromChunks(chunks, allocateByWeight(1, raw), weights),
		ReallocOnComplete: true,
	}
	sess, err := exec.Start(ctx, plan)
	if err != nil {
		return SLAResult{}, err
	}

	conc := 1
	rearranged := false
	reached := func(thr units.Rate) bool {
		return thr >= target
	}
	sample, err := sess.Advance(transfer.SampleWindow)
	if err != nil {
		return SLAResult{}, err
	}
	// Proportional jump (Algorithm 3 lines 10–13).
	if !reached(sample.Throughput) && sample.Throughput > 0 && !sess.Done() {
		conc = units.Clamp(int(math.Round(float64(target)/float64(sample.Throughput))), 1, maxChannel)
		if err := sess.SetTotalChannels(conc); err != nil {
			return SLAResult{}, err
		}
		sample, err = sess.Advance(transfer.SampleWindow)
		if err != nil {
			return SLAResult{}, err
		}
		// The one-channel estimate extrapolates badly when the first
		// channel lands on a pipelining-bound small chunk; correct a
		// gross overshoot once, proportionally downward.
		if float64(sample.Throughput) > float64(target)*(1+slaeeTolerance) && conc > 1 && !sess.Done() {
			conc = units.Clamp(int(math.Round(float64(conc)*float64(target)/float64(sample.Throughput))), 1, maxChannel)
			if err := sess.SetTotalChannels(conc); err != nil {
				return SLAResult{}, err
			}
			sample, err = sess.Advance(transfer.SampleWindow)
			if err != nil {
				return SLAResult{}, err
			}
		}
	}
	// Continuous control loop (lines 14–22, run for the whole
	// transfer): "while seeking the desired concurrency level, it
	// calculates the throughput in every five seconds and adjusts the
	// concurrency level to reach the throughput level promised in the
	// SLA". Below target it climbs (re-arranging channels toward Large
	// chunks once the ceiling is hit); comfortably above target it
	// sheds channels to save energy. minConc remembers levels that
	// proved insufficient so the loop cannot oscillate.
	minConc := 1
	concCeil := maxChannel
	lastLowered := false
	lastRaised := false
	var prevThr units.Rate
	for !sess.Done() {
		thr := sample.Throughput
		switch {
		case lastRaised && float64(thr) < float64(prevThr)*(1-slaeeNegativeResponse) && !reached(thr):
			// Raising concurrency made things worse — the path is in
			// the contention regime (single-disk LAN, Fig. 4). Undo
			// the raise and never climb past this level again;
			// whatever throughput this system has, more channels will
			// not buy the SLA.
			conc--
			concCeil = conc
			if err := sess.SetTotalChannels(conc); err != nil {
				return SLAResult{}, err
			}
			lastRaised = false
			lastLowered = false
		case !reached(thr):
			if lastLowered {
				minConc = conc + 1
			}
			if conc < concCeil {
				conc++
				if err := sess.SetTotalChannels(conc); err != nil {
					return SLAResult{}, err
				}
				lastRaised = true
			} else if conc == maxChannel && !rearranged {
				// reArrangeChannels(): at the channel ceiling the only
				// lever left is where the channels sit; shift them
				// toward the byte-heavy Large chunks.
				if err := sess.SetAllocation(rearrangeToward(chunks, conc)); err != nil {
					return SLAResult{}, err
				}
				rearranged = true
				lastRaised = false
			} else {
				lastRaised = false
			}
			lastLowered = false
		case float64(thr) > float64(target)*(1+slaeeLowerMargin) && conc-1 >= minConc:
			conc--
			if err := sess.SetTotalChannels(conc); err != nil {
				return SLAResult{}, err
			}
			lastLowered = true
			lastRaised = false
		default:
			lastLowered = false
			lastRaised = false
		}
		prevThr = thr
		sample, err = sess.Advance(transfer.SampleWindow)
		if err != nil {
			return SLAResult{}, err
		}
		if sample.Duration == 0 {
			break
		}
	}

	r, err := sess.Finish()
	if err != nil {
		return SLAResult{}, err
	}
	r.Algorithm = NameSLAEE
	return SLAResult{
		Report:           r,
		Target:           target,
		FinalConcurrency: conc,
		Rearranged:       rearranged,
	}, nil
}

// rearrangeToward allocates n channels proportionally to chunk bytes,
// guaranteeing Large chunks more than one channel when n permits.
func rearrangeToward(chunks []dataset.Chunk, n int) []int {
	sizes := make([]float64, len(chunks))
	for i, c := range chunks {
		sizes[i] = float64(c.TotalSize())
	}
	return allocateByWeight(n, sizes)
}
