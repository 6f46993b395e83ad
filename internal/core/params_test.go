package core

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/netem"
	"github.com/didclab/eta/internal/transfer"
	"github.com/didclab/eta/internal/units"
)

// xsedeEnv mirrors the paper's XSEDE parameters: BDP 50 MB, buffer
// 32 MB.
func xsedeEnv() transfer.Environment {
	return transfer.Environment{
		Path: netem.Path{
			Bandwidth:       10 * units.Gbps,
			RTT:             40 * time.Millisecond,
			MaxTCPBuffer:    32 * units.MB,
			EffStreamBuffer: 4 * units.MB,
		},
		MaxChannels:    20,
		ServersPerSite: 4,
	}
}

func TestCalculateParametersPaperValues(t *testing.T) {
	env := xsedeEnv()
	chunks := []dataset.Chunk{
		// Small chunk, avg 10 MB: pipelining = ⌈50/10⌉ = 5,
		// parallelism = max(min(⌈50/32⌉=2, ⌈10/32⌉=1),1) = 1.
		{Class: dataset.Small, Files: dataset.NewGenerator(1).Uniform(10, 10*units.MB).Files},
		// Large chunk, avg 2 GB: pipelining = ⌈50/2000⌉ = 1,
		// parallelism = max(min(2, 63),1) = 2.
		{Class: dataset.Large, Files: dataset.NewGenerator(2).Uniform(4, 2*units.GB).Files},
	}
	calculateParameters(env, chunks)
	if chunks[0].Pipelining != 5 || chunks[0].Parallelism != 1 {
		t.Errorf("small chunk params = (pipe %d, par %d), want (5, 1)",
			chunks[0].Pipelining, chunks[0].Parallelism)
	}
	if chunks[1].Pipelining != 1 || chunks[1].Parallelism != 2 {
		t.Errorf("large chunk params = (pipe %d, par %d), want (1, 2)",
			chunks[1].Pipelining, chunks[1].Parallelism)
	}
}

func TestCalculateParametersPipeliningCapped(t *testing.T) {
	env := xsedeEnv()
	tiny := []dataset.Chunk{
		{Class: dataset.Small, Files: dataset.NewGenerator(1).Uniform(1000, 100*units.KB).Files},
	}
	calculateParameters(env, tiny)
	if tiny[0].Pipelining != maxPipelining {
		t.Errorf("pipelining = %d, want cap %d", tiny[0].Pipelining, maxPipelining)
	}
}

func TestPrepareChunksOrdersSmallToLarge(t *testing.T) {
	env := xsedeEnv()
	g := dataset.NewGenerator(3)
	var files []dataset.File
	files = append(files, g.Uniform(20, 10*units.MB).Files...)
	for i := range files {
		files[i].Name = "s" + files[i].Name
	}
	large := g.Uniform(5, 2*units.GB)
	for i := range large.Files {
		large.Files[i].Name = "l" + large.Files[i].Name
	}
	files = append(files, large.Files...)
	chunks := prepareChunks(env, dataset.Dataset{Files: files})
	for i := 1; i < len(chunks); i++ {
		if chunks[i].Class < chunks[i-1].Class {
			t.Fatalf("chunks out of order: %v before %v", chunks[i-1].Class, chunks[i].Class)
		}
	}
	for _, c := range chunks {
		if c.Pipelining < 1 || c.Parallelism < 1 {
			t.Errorf("chunk %v has unset parameters %+v", c.Class, c)
		}
	}
}

func TestChunkWeightsNormalized(t *testing.T) {
	g := dataset.NewGenerator(4)
	chunks := []dataset.Chunk{
		{Files: g.Uniform(100, 10*units.MB).Files},
		{Files: g.Uniform(10, 1*units.GB).Files},
	}
	_, w := chunkWeights(chunks)
	if math.Abs(w[0]+w[1]-1) > 1e-9 {
		t.Errorf("weights sum to %v", w[0]+w[1])
	}
	if w[0] <= 0 || w[1] <= 0 {
		t.Errorf("non-positive weights: %v", w)
	}
}

func TestAllocateByWeightProperties(t *testing.T) {
	f := func(nRaw uint8, w1Raw, w2Raw, w3Raw uint8) bool {
		n := int(nRaw%20) + 1
		ws := []float64{float64(w1Raw) + 1, float64(w2Raw) + 1, float64(w3Raw) + 1}
		var sum float64
		for _, w := range ws {
			sum += w
		}
		for i := range ws {
			ws[i] /= sum
		}
		alloc := allocateByWeight(n, ws)
		total := 0
		for _, a := range alloc {
			if a < 0 {
				return false
			}
			total += a
		}
		if total != n {
			return false
		}
		// No chunk starves while another holds several channels.
		if n >= len(ws) {
			for _, a := range alloc {
				if a == 0 {
					for _, b := range alloc {
						if b > 1 {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAllocateByWeightProportional(t *testing.T) {
	alloc := allocateByWeight(10, []float64{0.5, 0.3, 0.2})
	if alloc[0] != 5 || alloc[1] != 3 || alloc[2] != 2 {
		t.Errorf("alloc = %v, want [5 3 2]", alloc)
	}
}

func TestAllocateByWeightDegenerate(t *testing.T) {
	if got := allocateByWeight(0, []float64{1}); got[0] != 0 {
		t.Error("zero channels should allocate nothing")
	}
	if got := allocateByWeight(5, nil); len(got) != 0 {
		t.Error("no chunks should return empty")
	}
	// One channel across three chunks: exactly one chunk gets it.
	got := allocateByWeight(1, []float64{0.4, 0.35, 0.25})
	total := 0
	for _, a := range got {
		total += a
	}
	if total != 1 {
		t.Errorf("alloc = %v, want total 1", got)
	}
}

func TestGUCOptionsDefaults(t *testing.T) {
	o := GUCOptions{}.withDefaults()
	if o.Pipelining != 1 || o.Parallelism != 1 || o.Concurrency != 1 {
		t.Errorf("defaults = %+v", o)
	}
	o = GUCOptions{Pipelining: 4, Parallelism: 2, Concurrency: 3}.withDefaults()
	if o.Pipelining != 4 || o.Parallelism != 2 || o.Concurrency != 3 {
		t.Errorf("explicit options mangled: %+v", o)
	}
}
