package transfer

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/testbed"
	"github.com/didclab/eta/internal/units"
)

// smallPlan builds a one-chunk plan of n uniform files.
func smallPlan(n int, size units.Bytes, channels, par, pipe int) Plan {
	d := dataset.NewGenerator(1).Uniform(n, size)
	chunk := dataset.Chunk{Class: dataset.Large, Files: d.Files, Parallelism: par, Pipelining: pipe}
	return Plan{Chunks: []ChunkPlan{{Chunk: chunk, Channels: channels, Weight: 1, AcceptRealloc: true}}}
}

func TestSimMovesAllBytes(t *testing.T) {
	sim := NewSim(testbed.DIDCLAB())
	plan := smallPlan(10, 50*units.MB, 2, 1, 4)
	r, err := sim.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	want := plan.TotalBytes()
	if diff := math.Abs(float64(r.Bytes - want)); diff > 10 {
		t.Errorf("moved %v, want %v (diff %v bytes)", r.Bytes, want, diff)
	}
	if r.Duration <= 0 || r.Throughput <= 0 {
		t.Errorf("degenerate report: %+v", r)
	}
	if r.EndSystemEnergy <= 0 || r.NetworkEnergy <= 0 {
		t.Errorf("no energy accounted: %+v", r)
	}
}

func TestSimThroughputBounded(t *testing.T) {
	tb := testbed.XSEDE()
	sim := NewSim(tb)
	r, err := sim.Run(context.Background(), smallPlan(4, 2*units.GB, 4, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	if r.Throughput > tb.Path.Bandwidth {
		t.Errorf("throughput %v exceeds link %v", r.Throughput, tb.Path.Bandwidth)
	}
}

func TestSimMoreStreamsFasterOnWAN(t *testing.T) {
	sim := NewSim(testbed.XSEDE())
	one, err := sim.Run(context.Background(), smallPlan(8, 4*units.GB, 1, 1, 4))
	if err != nil {
		t.Fatal(err)
	}
	eight, err := sim.Run(context.Background(), smallPlan(8, 4*units.GB, 8, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	if eight.Throughput < 3*one.Throughput {
		t.Errorf("parallel channels barely helped: 1ch=%v 8ch=%v", one.Throughput, eight.Throughput)
	}
}

func TestSimConcurrencyHurtsOnLAN(t *testing.T) {
	// DIDCLAB's single disk must make 12 channels slower than 1 (Fig. 4a).
	sim := NewSim(testbed.DIDCLAB())
	one, err := sim.Run(context.Background(), smallPlan(12, 500*units.MB, 1, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	many, err := sim.Run(context.Background(), smallPlan(12, 500*units.MB, 12, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if many.Throughput >= one.Throughput {
		t.Errorf("LAN concurrency didn't hurt: 1ch=%v 12ch=%v", one.Throughput, many.Throughput)
	}
}

func TestSimPipeliningHelpsSmallFiles(t *testing.T) {
	mk := func(pipe int) Plan {
		d := dataset.NewGenerator(2).Uniform(400, 5*units.MB)
		chunk := dataset.Chunk{Class: dataset.Small, Files: d.Files, Parallelism: 1, Pipelining: pipe}
		return Plan{Chunks: []ChunkPlan{{Chunk: chunk, Channels: 2, Weight: 1}}}
	}
	sim := NewSim(testbed.XSEDE())
	slow, err := sim.Run(context.Background(), mk(1))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := sim.Run(context.Background(), mk(10))
	if err != nil {
		t.Fatal(err)
	}
	if fast.Throughput <= slow.Throughput {
		t.Errorf("pipelining did not help: q=1 %v vs q=10 %v", slow.Throughput, fast.Throughput)
	}
}

func TestSimSequentialVsConcurrent(t *testing.T) {
	// A dataset with a slow small chunk: transferring chunks
	// simultaneously (ProMC style) must beat one-at-a-time (SC style).
	g := dataset.NewGenerator(3)
	small := dataset.Chunk{Class: dataset.Small, Files: g.ManySmall(600, 3*units.MB, 8*units.MB).Files, Parallelism: 1, Pipelining: 8}
	large := dataset.Chunk{Class: dataset.Large, Files: g.Uniform(24, 1*units.GB).Files, Parallelism: 2, Pipelining: 1}
	mk := func(sequential bool) Plan {
		return Plan{
			Chunks: []ChunkPlan{
				{Chunk: small, Channels: 3, Weight: 2, AcceptRealloc: true},
				{Chunk: large, Channels: 3, Weight: 1, AcceptRealloc: true},
			},
			Sequential:        sequential,
			ReallocOnComplete: true,
		}
	}
	sim := NewSim(testbed.XSEDE())
	seq, err := sim.Run(context.Background(), mk(true))
	if err != nil {
		t.Fatal(err)
	}
	conc, err := sim.Run(context.Background(), mk(false))
	if err != nil {
		t.Fatal(err)
	}
	if conc.Duration >= seq.Duration {
		t.Errorf("multi-chunk not faster: sequential %v vs concurrent %v", seq.Duration, conc.Duration)
	}
}

func TestSimSpreadServersCostsEnergy(t *testing.T) {
	// Spreading 2 channels over 2 servers (GO) must cost more energy
	// than packing them on one server (custom client), at similar
	// throughput — the §3 explanation of GO's 60% penalty.
	mk := func(spread bool) Plan {
		p := smallPlan(8, 2*units.GB, 2, 2, 4)
		p.SpreadServers = spread
		return p
	}
	sim := NewSim(testbed.XSEDE())
	packed, err := sim.Run(context.Background(), mk(false))
	if err != nil {
		t.Fatal(err)
	}
	spread, err := sim.Run(context.Background(), mk(true))
	if err != nil {
		t.Fatal(err)
	}
	if spread.EndSystemEnergy <= packed.EndSystemEnergy {
		t.Errorf("spreading channels did not cost energy: packed %v spread %v",
			packed.EndSystemEnergy, spread.EndSystemEnergy)
	}
	if relDiff(float64(spread.Throughput), float64(packed.Throughput)) > 0.25 {
		t.Errorf("throughput should be similar: packed %v spread %v",
			packed.Throughput, spread.Throughput)
	}
}

func relDiff(a, b float64) float64 {
	if b == 0 {
		return math.Inf(1)
	}
	return math.Abs(a-b) / b
}

func TestSimAdaptiveConcurrencyChange(t *testing.T) {
	sim := NewSim(testbed.FutureGrid())
	plan := smallPlan(40, 500*units.MB, 1, 1, 2)
	sess, err := sim.Start(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := sess.Advance(SampleWindow)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.SetTotalChannels(6); err != nil {
		t.Fatal(err)
	}
	s2, err := sess.Advance(SampleWindow)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Throughput <= s1.Throughput {
		t.Errorf("raising concurrency on WAN didn't help: %v then %v", s1.Throughput, s2.Throughput)
	}
	if s2.ActiveChannels != 6 {
		t.Errorf("active channels = %d, want 6", s2.ActiveChannels)
	}
	r, err := sess.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(float64(r.Bytes - plan.TotalBytes())); diff > 10 {
		t.Errorf("bytes lost in adaptive run: moved %v want %v", r.Bytes, plan.TotalBytes())
	}
}

func TestSimSetAllocationExplicit(t *testing.T) {
	g := dataset.NewGenerator(5)
	a := dataset.Chunk{Class: dataset.Small, Files: g.Uniform(30, 30*units.MB).Files, Parallelism: 1, Pipelining: 4}
	b := dataset.Chunk{Class: dataset.Large, Files: g.Uniform(4, 2*units.GB).Files, Parallelism: 2, Pipelining: 1}
	plan := Plan{Chunks: []ChunkPlan{
		{Chunk: a, Channels: 1, Weight: 1, AcceptRealloc: true},
		{Chunk: b, Channels: 1, Weight: 1, AcceptRealloc: true},
	}}
	sim := NewSim(testbed.XSEDE())
	sess, err := sim.Start(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.SetAllocation([]int{3, 2}); err != nil {
		t.Fatal(err)
	}
	// Rejected allocations are covered by internal/proto's
	// TestAllocationContract, which runs on the simulator too.
	if _, err := sess.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestSimPlanValidation(t *testing.T) {
	sim := NewSim(testbed.XSEDE())
	ctx := context.Background()
	if _, err := sim.Run(ctx, Plan{}); err == nil {
		t.Error("empty plan accepted")
	}
	empty := Plan{Chunks: []ChunkPlan{{Chunk: dataset.Chunk{}, Channels: 1}}}
	if _, err := sim.Run(ctx, empty); err == nil {
		t.Error("plan with empty chunk accepted")
	}
	noChan := smallPlan(2, units.MB, 0, 1, 1)
	if _, err := sim.Run(ctx, noChan); err == nil {
		t.Error("plan with zero channels accepted")
	}
	over := smallPlan(2, units.MB, 100, 1, 1)
	if _, err := sim.Run(ctx, over); err == nil {
		t.Error("plan exceeding channel budget accepted")
	}
}

func TestSimContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sim := NewSim(testbed.XSEDE())
	sess, err := sim.Start(ctx, smallPlan(4, units.GB, 2, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Advance(time.Second); err == nil {
		t.Error("cancelled context not honoured")
	}
}

func TestSimEnergyConservation(t *testing.T) {
	// Sum of sample energies must equal the report totals.
	sim := NewSim(testbed.FutureGrid())
	plan := smallPlan(20, 200*units.MB, 4, 1, 2)
	r, err := sim.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	var sumE, sumN units.Joules
	var sumB units.Bytes
	for _, s := range r.Samples {
		sumE += s.EndSystemEnergy
		sumN += s.NetworkEnergy
		sumB += s.Bytes
	}
	if relDiff(float64(sumE), float64(r.EndSystemEnergy)) > 1e-9 {
		t.Errorf("sample energy %v != total %v", sumE, r.EndSystemEnergy)
	}
	if relDiff(float64(sumN), float64(r.NetworkEnergy)) > 1e-9 {
		t.Errorf("sample net energy %v != total %v", sumN, r.NetworkEnergy)
	}
	if math.Abs(float64(sumB-r.Bytes)) > 10 {
		t.Errorf("sample bytes %v != total %v", sumB, r.Bytes)
	}
}

func TestSimAdvanceErrors(t *testing.T) {
	sim := NewSim(testbed.DIDCLAB())
	sess, err := sim.Start(context.Background(), smallPlan(1, units.MB, 1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Advance(0); err == nil {
		t.Error("zero advance accepted")
	}
	if _, err := sess.Advance(-time.Second); err == nil {
		t.Error("negative advance accepted")
	}
}

func TestSimAdvancePastCompletion(t *testing.T) {
	sim := NewSim(testbed.DIDCLAB())
	sess, err := sim.Start(context.Background(), smallPlan(1, units.MB, 1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	for !sess.Done() {
		if _, err := sess.Advance(time.Second); err != nil {
			t.Fatal(err)
		}
	}
	s, err := sess.Advance(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if s.Duration != 0 || s.Bytes != 0 {
		t.Errorf("advancing a finished transfer moved things: %+v", s)
	}
	if sess.Remaining() != 0 {
		t.Errorf("remaining = %v after completion", sess.Remaining())
	}
}

func TestSimReallocMovesChannelsToLargeChunk(t *testing.T) {
	// With realloc on, channels that finish the small chunk join the
	// large chunk and shorten the run versus realloc off.
	g := dataset.NewGenerator(7)
	small := dataset.Chunk{Class: dataset.Small, Files: g.Uniform(20, 20*units.MB).Files, Parallelism: 1, Pipelining: 6}
	large := dataset.Chunk{Class: dataset.Large, Files: g.Uniform(8, 2*units.GB).Files, Parallelism: 2, Pipelining: 1}
	mk := func(realloc, acceptLarge bool) Plan {
		return Plan{
			Chunks: []ChunkPlan{
				{Chunk: small, Channels: 5, Weight: 1, AcceptRealloc: true},
				{Chunk: large, Channels: 1, Weight: 1, AcceptRealloc: acceptLarge},
			},
			ReallocOnComplete: realloc,
		}
	}
	sim := NewSim(testbed.XSEDE())
	with, err := sim.Run(context.Background(), mk(true, true))
	if err != nil {
		t.Fatal(err)
	}
	without, err := sim.Run(context.Background(), mk(false, true))
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := sim.Run(context.Background(), mk(true, false))
	if err != nil {
		t.Fatal(err)
	}
	if with.Duration >= without.Duration {
		t.Errorf("realloc did not shorten run: with %v without %v", with.Duration, without.Duration)
	}
	// MinE-style pinning: the Large chunk keeps one channel, so the run
	// is as slow as no realloc at all.
	if relDiff(float64(pinned.Duration), float64(without.Duration)) > 0.05 {
		t.Errorf("pinned large chunk should match no-realloc duration: %v vs %v",
			pinned.Duration, without.Duration)
	}
}

func TestSimReportString(t *testing.T) {
	sim := NewSim(testbed.DIDCLAB())
	sim.Label = "test"
	r, err := sim.Run(context.Background(), smallPlan(2, 10*units.MB, 1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if s := r.String(); s == "" || r.Algorithm != "test" || r.Testbed != "DIDCLAB" {
		t.Errorf("report naming wrong: %q %+v", s, r)
	}
}

func TestSimChunkReports(t *testing.T) {
	g := dataset.NewGenerator(13)
	small := dataset.Chunk{Class: dataset.Small, Files: g.Uniform(30, 20*units.MB).Files, Parallelism: 1, Pipelining: 4}
	large := dataset.Chunk{Class: dataset.Large, Files: g.Uniform(4, 3*units.GB).Files, Parallelism: 2, Pipelining: 1}
	plan := Plan{
		Chunks: []ChunkPlan{
			{Chunk: small, Channels: 3, Weight: 1, AcceptRealloc: true},
			{Chunk: large, Channels: 1, Weight: 1},
		},
		ReallocOnComplete: true,
	}
	r, err := NewSim(testbed.XSEDE()).Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Chunks) != 2 {
		t.Fatalf("got %d chunk reports", len(r.Chunks))
	}
	sm, lg := r.Chunks[0], r.Chunks[1]
	if sm.Class != dataset.Small || lg.Class != dataset.Large {
		t.Fatalf("chunk order wrong: %+v", r.Chunks)
	}
	if sm.Files != 30 || lg.Files != 4 {
		t.Errorf("chunk file counts wrong: %+v", r.Chunks)
	}
	// The small chunk (600 MB on 3 channels) completes well before the
	// large chunk (12 GB on 1 channel).
	if sm.CompletedAt >= lg.CompletedAt {
		t.Errorf("small chunk finished at %v, large at %v", sm.CompletedAt, lg.CompletedAt)
	}
	// The last chunk completes when the transfer does (within a tick).
	if diff := r.Duration - lg.CompletedAt; diff < 0 || diff > time.Second {
		t.Errorf("large completion %v vs duration %v", lg.CompletedAt, r.Duration)
	}
	if sm.InitialChannels != 3 || lg.InitialChannels != 1 {
		t.Errorf("initial channels wrong: %+v", r.Chunks)
	}
}

func TestSimWeightedRedistributionSkipsDrainedChunks(t *testing.T) {
	// After the small chunk drains, SetTotalChannels must hand all
	// channels to the surviving chunk regardless of weights.
	g := dataset.NewGenerator(17)
	small := dataset.Chunk{Class: dataset.Small, Files: g.Uniform(2, 5*units.MB).Files, Parallelism: 1, Pipelining: 2}
	large := dataset.Chunk{Class: dataset.Large, Files: g.Uniform(24, 1*units.GB).Files, Parallelism: 2, Pipelining: 1}
	plan := Plan{
		Chunks: []ChunkPlan{
			{Chunk: small, Channels: 1, Weight: 5, AcceptRealloc: true},
			{Chunk: large, Channels: 1, Weight: 1, AcceptRealloc: true},
		},
		ReallocOnComplete: true,
	}
	sess, err := NewSim(testbed.XSEDE()).Start(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	// 10 MB of small files drain within seconds of sim time; the 24 GB
	// large chunk keeps running.
	if _, err := sess.Advance(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := sess.SetTotalChannels(6); err != nil {
		t.Fatal(err)
	}
	s, err := sess.Advance(SampleWindow)
	if err != nil {
		t.Fatal(err)
	}
	if s.ActiveChannels != 6 {
		t.Errorf("active channels = %d, want all 6 on the surviving chunk", s.ActiveChannels)
	}
	if _, err := sess.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestSimBackgroundClamped(t *testing.T) {
	// A pathological background schedule (≥100%) must not stall the
	// transfer: the clamp leaves 5% of the link.
	sim := NewSim(testbed.DIDCLAB())
	sim.Background = func(time.Duration) float64 { return 5.0 }
	r, err := sim.Run(context.Background(), smallPlan(2, 10*units.MB, 1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if r.Throughput <= 0 {
		t.Error("transfer stalled under clamped background traffic")
	}
}

func TestSimGOStyleSpreadUsesAllPoolServers(t *testing.T) {
	// With SpreadServers and 4 channels on a 4-server site, every
	// channel lands on a distinct server — observable through the extra
	// energy versus packing (monotone in spread width).
	tb := testbed.XSEDE()
	mk := func(spread bool, channels int) Plan {
		p := smallPlan(8, 1*units.GB, channels, 1, 1)
		p.SpreadServers = spread
		return p
	}
	sim := NewSim(tb)
	packed2, _ := sim.Run(context.Background(), mk(false, 2))
	spread2, err := sim.Run(context.Background(), mk(true, 2))
	if err != nil {
		t.Fatal(err)
	}
	spread4, err := sim.Run(context.Background(), mk(true, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !(packed2.EndSystemEnergy < spread2.EndSystemEnergy) {
		t.Errorf("spread(2) should cost more than packed(2): %v vs %v",
			spread2.EndSystemEnergy, packed2.EndSystemEnergy)
	}
	if spread4.Throughput <= spread2.Throughput {
		t.Errorf("4 spread channels should outrun 2: %v vs %v",
			spread4.Throughput, spread2.Throughput)
	}
}

// midTransfer starts a multi-chunk, Globus-Online-style plan on XSEDE
// (four servers per site, channels spread across them) and runs it
// 30 simulated seconds in, past slow start and the first per-file gaps.
func midTransfer(tb testing.TB) *simSession {
	tb.Helper()
	bed := testbed.XSEDE()
	ds := bed.Dataset(1)
	var plan Plan
	for _, c := range dataset.PartitionAndMerge(ds, bed.Path.BDP()) {
		c.Parallelism, c.Pipelining = 2, 4
		plan.Chunks = append(plan.Chunks, ChunkPlan{Chunk: c, Channels: 3, Weight: c.Weight(), AcceptRealloc: true})
	}
	plan.SpreadServers = true
	plan.ReallocOnComplete = true
	sess, err := NewSim(bed).Start(context.Background(), plan)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := sess.Advance(30 * time.Second); err != nil {
		tb.Fatal(err)
	}
	return sess.(*simSession)
}

// quietTransfer starts a large-file plan on DIDCLAB and runs it 30
// simulated seconds in, past slow start: a file then finishes every few
// hundred simulated seconds, so nearly every tick leaves the event state
// unchanged.
func quietTransfer(tb testing.TB) *simSession {
	tb.Helper()
	sess, err := NewSim(testbed.DIDCLAB()).Start(context.Background(), smallPlan(64, 16*units.GB, 4, 2, 1))
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := sess.Advance(30 * time.Second); err != nil {
		tb.Fatal(err)
	}
	return sess.(*simSession)
}

// A tick must allocate nothing: every simulated second behind
// Figs. 2–7 runs ten of them.
func TestSimStepAllocatesNothing(t *testing.T) {
	s := midTransfer(t)
	if len(s.chunks) < 2 || len(s.channels) < 4 {
		t.Fatalf("want a multi-chunk, multi-channel session, got %d chunks, %d channels", len(s.chunks), len(s.channels))
	}
	for _, s := range []*simSession{s, quietTransfer(t)} {
		if allocs := testing.AllocsPerRun(100, func() { s.step(DefaultTick) }); allocs != 0 {
			t.Errorf("%s: step allocates %v times per tick, want 0", s.sim.TB.Name, allocs)
		}
		if s.Done() {
			t.Fatalf("%s: session drained during the measurement; it no longer measures a mid-transfer tick", s.sim.TB.Name)
		}
	}
}

// Cancelling from another goroutine while Finish runs must stop the
// simulation within one tick and leave the partial window unsampled.
func TestSimCancelDuringFinish(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cancelAt = 10 * time.Second
	reached := make(chan struct{})
	cancelled := make(chan struct{})
	go func() {
		<-reached
		cancel()
		close(cancelled)
	}()
	sim := NewSim(testbed.XSEDE())
	// Background runs once per tick; it hands the cancel to the other
	// goroutine once the simulation is cancelAt in, and waits for it.
	sim.Background = func(at time.Duration) float64 {
		if at == cancelAt {
			close(reached)
			<-cancelled
		}
		return 0
	}
	sess, err := sim.Start(ctx, smallPlan(16, 4*units.GB, 4, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Finish(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Finish returned %v, want context.Canceled", err)
	}
	s := sess.(*simSession)
	if s.now != cancelAt+DefaultTick {
		t.Errorf("simulation stopped at %v, want %v: the tick after the cancel must not run", s.now, cancelAt+DefaultTick)
	}
	n := len(s.samples)
	for i, smp := range s.samples {
		if smp.Duration != SampleWindow || smp.Start+smp.Duration > cancelAt {
			t.Errorf("sample %d covers %v+%v, want a full window before the cancel", i, smp.Start, smp.Duration)
		}
	}
	if _, err := sess.Advance(SampleWindow); !errors.Is(err, context.Canceled) {
		t.Errorf("Advance after cancel returned %v, want context.Canceled", err)
	}
	if len(s.samples) != n {
		t.Errorf("%d samples appended after the error", len(s.samples)-n)
	}
}

// BenchmarkSimStep times one tick of a mid-transfer session: quiet
// ticks leave the event state unchanged and reuse the last rates and
// power; eventful ones (multi-chunk XSEDE, files finishing and gaps
// expiring) recompute them. Run it with -benchmem to see the per-tick
// allocations.
func BenchmarkSimStep(b *testing.B) {
	for _, bc := range []struct {
		name  string
		start func(testing.TB) *simSession
	}{{"quiet", quietTransfer}, {"eventful", midTransfer}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			s := bc.start(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if s.Done() {
					b.StopTimer()
					s = bc.start(b)
					b.StartTimer()
				}
				s.step(DefaultTick)
			}
		})
	}
}
