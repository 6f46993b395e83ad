package transfer

import (
	"reflect"
	"testing"
)

// chunks is a test fixture of per-chunk allocation inputs.
type chunks struct {
	weight []float64
	live   []bool
	left   []float64
}

func (c chunks) weightOf(i int) float64  { return c.weight[i] }
func (c chunks) queued(i int) bool       { return c.live[i] }
func (c chunks) bytesLeft(i int) float64 { return c.left[i] }

func TestSplitByWeight(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		in   chunks
		want []int
	}{
		{"proportional", 10, chunks{weight: []float64{5, 3, 2}, live: []bool{true, true, true}}, []int{5, 3, 2}},
		// 7·(0.5, 0.3, 0.2) = (3.5, 2.1, 1.4): floors use 6, the seventh
		// goes to the largest fractional part.
		{"remainder to largest fraction", 7, chunks{weight: []float64{0.5, 0.3, 0.2}, live: []bool{true, true, true}}, []int{4, 2, 1}},
		// 8·(0.2, 0.3, 0.5) = (1.6, 2.4, 4): the remainder skips the larger
		// weight for the larger fraction.
		{"fraction beats weight", 8, chunks{weight: []float64{2, 3, 5}, live: []bool{true, true, true}}, []int{2, 2, 4}},
		{"tie goes to lower index", 1, chunks{weight: []float64{1, 1}, live: []bool{true, true}}, []int{1, 0}},
		{"drained chunk gets none", 6, chunks{weight: []float64{9, 1, 1}, live: []bool{false, true, true}}, []int{0, 3, 3}},
		{"zero weights share equally", 5, chunks{weight: []float64{0, 0, 0}, live: []bool{true, true, true}}, []int{2, 2, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := make([]int, len(tc.in.weight))
			if !SplitByWeight(got, tc.n, tc.in.weightOf, tc.in.queued) {
				t.Fatal("split reported no live chunk")
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("split %d = %v, want %v", tc.n, got, tc.want)
			}
			total := 0
			for _, a := range got {
				total += a
			}
			if total != tc.n {
				t.Errorf("split uses %d channels, want all %d", total, tc.n)
			}
		})
	}
	drained := chunks{weight: []float64{1, 1}, live: []bool{false, false}}
	got := []int{7, 7}
	if SplitByWeight(got, 4, drained.weightOf, drained.queued) {
		t.Error("split with no live chunk reported success")
	}
	if got[0] != 0 || got[1] != 0 {
		t.Errorf("split with no live chunk left %v, want zeros", got)
	}
}

func TestPlacement(t *testing.T) {
	p := Plan{Chunks: []ChunkPlan{{Channels: 2}, {Channels: 1}, {Channels: 3}}}
	live := chunks{live: []bool{false, true, true}}
	got := make([]int, 3)
	Placement(got, p, live.queued)
	if want := []int{2, 1, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("concurrent placement = %v, want planned %v", got, want)
	}
	p.Sequential = true
	Placement(got, p, live.queued)
	if want := []int{0, 6, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("sequential placement = %v, want every channel on the first chunk with work %v", got, want)
	}
}

func TestNextChunk(t *testing.T) {
	in := chunks{live: []bool{false, true, true, true}, left: []float64{0, 10, 30, 30}}
	plan := func(seq, realloc bool) Plan {
		p := Plan{Sequential: seq, ReallocOnComplete: realloc}
		for range in.live {
			p.Chunks = append(p.Chunks, ChunkPlan{AcceptRealloc: true})
		}
		return p
	}
	next := func(p Plan, from int) int { return NextChunk(p, from, in.queued, in.bytesLeft) }

	if got := next(plan(true, false), 0); got != 1 {
		t.Errorf("sequential moves to %d, want the next chunk in plan order (1)", got)
	}
	if got := next(plan(true, false), 1); got != 2 {
		t.Errorf("sequential skips to %d, want 2 (never the channel's own chunk)", got)
	}
	if got := next(plan(false, false), 0); got != -1 {
		t.Errorf("without ReallocOnComplete the channel moved to %d, want retired", got)
	}
	if got := next(plan(false, true), 0); got != 2 {
		t.Errorf("realloc moves to %d, want 2 (largest remaining, lower index on a tie)", got)
	}
	p := plan(false, true)
	p.Chunks[2].AcceptRealloc = false
	if got := next(p, 0); got != 3 {
		t.Errorf("realloc moves to %d, want 3 (chunk 2 does not accept)", got)
	}
	p.Chunks[1].AcceptRealloc, p.Chunks[3].AcceptRealloc = false, false
	if got := next(p, 0); got != -1 {
		t.Errorf("realloc moves to %d with no accepting chunk, want retired", got)
	}
}

func TestAllocationRulesDoNotAllocate(t *testing.T) {
	in := chunks{weight: []float64{3, 2, 1}, live: []bool{false, true, true}, left: []float64{0, 10, 30}}
	p := Plan{ReallocOnComplete: true, Chunks: []ChunkPlan{{AcceptRealloc: true}, {AcceptRealloc: true}, {AcceptRealloc: true}}}
	dst := make([]int, 3)
	if n := testing.AllocsPerRun(100, func() { NextChunk(p, 0, in.queued, in.bytesLeft) }); n != 0 {
		t.Errorf("NextChunk: %v allocs per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { SplitByWeight(dst, 7, in.weightOf, in.queued) }); n != 0 {
		t.Errorf("SplitByWeight: %v allocs per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { Placement(dst, p, in.queued) }); n != 0 {
		t.Errorf("Placement: %v allocs per call, want 0", n)
	}
}
