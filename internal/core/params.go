// Package core implements the paper's three energy-aware data transfer
// algorithms — MinE (Algorithm 1), HTEE (Algorithm 2) and SLAEE
// (Algorithm 3) — together with the energy-agnostic baselines they are
// evaluated against: GUC (untuned globus-url-copy), GO (Globus Online),
// SC (Single Chunk), ProMC (Pro-active Multi Chunk) and the BF
// brute-force reference.
//
// Every algorithm is a function of a transfer.Executor, so the same
// code drives both the simulated testbeds and the real-TCP stack.
package core

import (
	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/transfer"
	"github.com/didclab/eta/internal/units"
)

// Algorithm names as used in reports and the paper's figure legends.
const (
	NameGUC   = "GUC"
	NameGO    = "GO"
	NameSC    = "SC"
	NameMinE  = "MinE"
	NameProMC = "ProMC"
	NameHTEE  = "HTEE"
	NameSLAEE = "SLAEE"
	NameBF    = "BF"
)

// maxPipelining bounds the pipelining depth; beyond this the control
// channel is saturated and deeper queues only waste server state.
const maxPipelining = 64

// calculateParameters fills each chunk's pipelining and parallelism
// from the paper's formulas (Algorithm 1 lines 8–9, reused verbatim by
// Algorithms 2 and 3 via "calculateParameters()"):
//
//	pipelining  = ⌈BDP / avgFileSize⌉
//	parallelism = max(min(⌈BDP/bufSize⌉, ⌈avgFileSize/bufSize⌉), 1)
func calculateParameters(env transfer.Environment, chunks []dataset.Chunk) {
	bdp := env.BDP()
	buf := env.BufferSize()
	for i := range chunks {
		avg := chunks[i].AvgFileSize()
		if avg <= 0 {
			continue
		}
		pipe := 1
		if bdp > 0 {
			pipe = units.Clamp(units.CeilDiv(bdp, avg), 1, maxPipelining)
		}
		par := 1
		if buf > 0 && bdp > 0 {
			par = units.CeilDiv(bdp, buf)
			if byFile := units.CeilDiv(avg, buf); byFile < par {
				par = byFile
			}
			if par < 1 {
				par = 1
			}
		}
		chunks[i].Pipelining = pipe
		chunks[i].Parallelism = par
	}
}

// prepareChunks partitions the dataset around the BDP, merges runt
// chunks, and fills the protocol parameters — the common preamble of
// Algorithms 1–3 ("fetchFilesFromServer; partitionFiles(files, BDP);
// calculateParameters").
func prepareChunks(env transfer.Environment, ds dataset.Dataset) []dataset.Chunk {
	chunks := dataset.PartitionAndMerge(ds, env.BDP())
	calculateParameters(env, chunks)
	return chunks
}

// chunkWeights computes the HTEE weights (Algorithm 2 lines 6–11),
// weight_i = log(size_i)·log(count_i). It returns them raw, for
// allocateByWeight, and normalized to sum to one, for the plan.
func chunkWeights(chunks []dataset.Chunk) (raw, norm []float64) {
	raw = make([]float64, len(chunks))
	norm = make([]float64, len(chunks))
	var total float64
	for i, c := range chunks {
		raw[i] = c.Weight()
		total += raw[i]
	}
	for i := range norm {
		if total <= 0 {
			norm[i] = 1 / float64(len(norm))
		} else {
			norm[i] = raw[i] / total
		}
	}
	return raw, norm
}

// allocateByWeight distributes n channels over the chunks in proportion
// to weights with the executors' split (transfer.SplitByWeight, which
// normalizes the weights itself), then makes sure no chunk starves
// while another holds several channels.
func allocateByWeight(n int, weights []float64) []int {
	alloc := make([]int, len(weights))
	if n <= 0 {
		return alloc
	}
	transfer.SplitByWeight(alloc, n,
		func(i int) float64 { return weights[i] },
		func(int) bool { return true })
	for i := range alloc {
		if alloc[i] == 0 {
			if j := richestChunk(alloc); alloc[j] > 1 {
				alloc[j]--
				alloc[i]++
			}
		}
	}
	return alloc
}

func richestChunk(alloc []int) int {
	best := 0
	for i, a := range alloc {
		if a > alloc[best] {
			best = i
		}
	}
	return best
}

// planFromChunks assembles a plan with the given per-chunk channels.
func planFromChunks(chunks []dataset.Chunk, alloc []int, weights []float64) []transfer.ChunkPlan {
	plans := make([]transfer.ChunkPlan, len(chunks))
	for i, c := range chunks {
		w := 0.0
		if weights != nil {
			w = weights[i]
		}
		plans[i] = transfer.ChunkPlan{
			Chunk:         c,
			Channels:      alloc[i],
			Weight:        w,
			AcceptRealloc: true,
		}
	}
	return plans
}
