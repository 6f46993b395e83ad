package proto

import (
	"context"
	"testing"
	"time"

	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/netem"
	"github.com/didclab/eta/internal/transfer"
	"github.com/didclab/eta/internal/units"
)

// testEnv describes the loopback path for the executor's environment.
func testEnv() transfer.Environment {
	return transfer.Environment{
		Path: netem.Path{
			Bandwidth:       1 * units.Gbps,
			RTT:             10 * time.Millisecond,
			MaxTCPBuffer:    4 * units.MB,
			EffStreamBuffer: 256 * units.KB,
		},
		MaxChannels:    8,
		ServersPerSite: 1,
	}
}

func newRealExecutor(t *testing.T, ds dataset.Dataset, mutate func(*ServerConfig)) (*Executor, *VerifySink) {
	t.Helper()
	srv := synthServer(t, ds, mutate)
	sink := NewVerifySink()
	exec := &Executor{
		Client:      &Client{Addr: srv.Addr()},
		Sink:        sink,
		Environment: testEnv(),
		Label:       "test",
	}
	return exec, sink
}

func planFor(ds dataset.Dataset, channels, par, pipe int) transfer.Plan {
	chunk := dataset.Chunk{Class: dataset.Large, Files: ds.Files, Parallelism: par, Pipelining: pipe}
	return transfer.Plan{
		Chunks: []transfer.ChunkPlan{{Chunk: chunk, Channels: channels, Weight: 1, AcceptRealloc: true}},
	}
}

func TestRealExecutorRunMovesEverything(t *testing.T) {
	ds := dataset.NewGenerator(20).ManySmall(30, 20*units.KB, 200*units.KB)
	exec, sink := newRealExecutor(t, ds, nil)
	r, err := exec.Run(context.Background(), planFor(ds, 3, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	if r.Bytes != ds.TotalSize() {
		t.Errorf("moved %v of %v", r.Bytes, ds.TotalSize())
	}
	if r.Throughput <= 0 || r.Duration <= 0 {
		t.Errorf("degenerate report %+v", r)
	}
	if bad := sink.Corrupt(); len(bad) > 0 {
		t.Errorf("corruption: %v", bad)
	}
	if r.Algorithm != "test" {
		t.Errorf("label = %q", r.Algorithm)
	}
}

func TestRealExecutorMultiChunkRealloc(t *testing.T) {
	g := dataset.NewGenerator(21)
	small := dataset.Chunk{Class: dataset.Small, Files: g.ManySmall(20, 10*units.KB, 50*units.KB).Files, Parallelism: 1, Pipelining: 4}
	large := dataset.Chunk{Class: dataset.Large, Files: g.Uniform(4, 1*units.MB).Files, Parallelism: 2, Pipelining: 1}
	all := dataset.Dataset{Files: append(append([]dataset.File{}, small.Files...), large.Files...)}
	exec, sink := newRealExecutor(t, all, nil)
	plan := transfer.Plan{
		Chunks: []transfer.ChunkPlan{
			{Chunk: small, Channels: 2, Weight: 2, AcceptRealloc: true},
			{Chunk: large, Channels: 1, Weight: 1, AcceptRealloc: true},
		},
		ReallocOnComplete: true,
	}
	r, err := exec.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bytes != all.TotalSize() {
		t.Errorf("moved %v of %v", r.Bytes, all.TotalSize())
	}
	if bad := sink.Corrupt(); len(bad) > 0 {
		t.Errorf("corruption: %v", bad)
	}
}

func TestRealExecutorSequential(t *testing.T) {
	g := dataset.NewGenerator(22)
	a := dataset.Chunk{Class: dataset.Small, Files: g.Uniform(10, 30*units.KB).Files, Parallelism: 1, Pipelining: 2}
	b := dataset.Chunk{Class: dataset.Large, Files: g.Uniform(3, 500*units.KB).Files, Parallelism: 2, Pipelining: 1}
	for i := range b.Files {
		b.Files[i].Name = "lg/" + b.Files[i].Name
	}
	all := dataset.Dataset{Files: append(append([]dataset.File{}, a.Files...), b.Files...)}
	exec, sink := newRealExecutor(t, all, nil)
	plan := transfer.Plan{
		Chunks: []transfer.ChunkPlan{
			{Chunk: a, Channels: 2, Weight: 1},
			{Chunk: b, Channels: 0, Weight: 1},
		},
		Sequential: true,
	}
	r, err := exec.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bytes != all.TotalSize() {
		t.Errorf("moved %v of %v", r.Bytes, all.TotalSize())
	}
	if bad := sink.Corrupt(); len(bad) > 0 {
		t.Errorf("corruption: %v", bad)
	}
}

func TestRealExecutorAdaptiveSession(t *testing.T) {
	ds := dataset.NewGenerator(23).Uniform(40, 300*units.KB)
	exec, _ := newRealExecutor(t, ds, func(c *ServerConfig) {
		c.PerStreamRate = 40 * units.Mbps
	})
	sess, err := exec.Start(context.Background(), planFor(ds, 1, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	s1, err := sess.Advance(300 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Duration <= 0 {
		t.Errorf("empty window: %+v", s1)
	}
	if err := sess.SetTotalChannels(4); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Advance(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	r, err := sess.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if r.Bytes != ds.TotalSize() {
		t.Errorf("moved %v of %v", r.Bytes, ds.TotalSize())
	}
	if sess.Remaining() != 0 || !sess.Done() {
		t.Error("session not done after Finish")
	}
}

func TestRealExecutorValidation(t *testing.T) {
	ds := dataset.NewGenerator(24).Uniform(2, units.KB)
	exec, _ := newRealExecutor(t, ds, nil)
	ctx := context.Background()
	if _, err := exec.Run(ctx, transfer.Plan{}); err == nil {
		t.Error("empty plan accepted")
	}
	if _, err := (&Executor{}).Run(ctx, planFor(ds, 1, 1, 1)); err == nil {
		t.Error("executor without client accepted")
	}
	sess, err := exec.Start(ctx, planFor(ds, 1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Advance(0); err == nil {
		t.Error("zero advance accepted")
	}
	// Allocation requests are checked by TestAllocationContract.
	if _, err := sess.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestRealExecutorContextCancel(t *testing.T) {
	ds := dataset.NewGenerator(25).Uniform(100, 2*units.MB)
	exec, _ := newRealExecutor(t, ds, func(c *ServerConfig) {
		c.PerStreamRate = 10 * units.Mbps // slow: cancellation lands mid-flight
	})
	ctx, cancel := context.WithCancel(context.Background())
	sess, err := exec.Start(ctx, planFor(ds, 2, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	cancel()
	done := make(chan error, 1)
	go func() {
		_, err := sess.Finish()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("cancelled transfer finished successfully")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Finish did not return after cancellation")
	}
}
