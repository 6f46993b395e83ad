package proto

import (
	"context"
	"testing"
	"time"

	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/obs"
	"github.com/didclab/eta/internal/transfer"
	"github.com/didclab/eta/internal/units"
)

// TestExecutorTwoRunsNoCounterBleed: the client Counters outlive a
// session (they back /metrics), so Report accounting must subtract the
// session baseline — a second Run on the same Executor used to report
// the first run's bytes on top of its own.
func TestExecutorTwoRunsNoCounterBleed(t *testing.T) {
	ds := dataset.NewGenerator(70).Uniform(12, 200*units.KB)
	exec, sink := newRealExecutor(t, ds, nil)
	for run := 0; run < 2; run++ {
		r, err := exec.Run(context.Background(), planFor(ds, 2, 1, 2))
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if r.Bytes != ds.TotalSize() {
			t.Errorf("run %d reported %v bytes, want plan size %v", run, r.Bytes, ds.TotalSize())
		}
		if r.Files != int64(len(ds.Files)) {
			t.Errorf("run %d reported %d files, want %d", run, r.Files, len(ds.Files))
		}
		if bad := sink.Corrupt(); len(bad) > 0 {
			t.Errorf("run %d corruption: %v", run, bad)
		}
	}
	// The shared counter keeps the cumulative total across both runs.
	if got := exec.Client.Counters.Bytes(); got != 2*ds.TotalSize() {
		t.Errorf("cumulative client counter = %v, want %v", got, 2*ds.TotalSize())
	}
}

// TestFinishDurationStampedAtCompletion: Report.Duration must cover the
// transfer, not the caller's patience — a controller that sits on a
// completed session before invoking Finish used to deflate Throughput.
func TestFinishDurationStampedAtCompletion(t *testing.T) {
	ds := dataset.NewGenerator(71).Uniform(6, 100*units.KB)
	exec, _ := newRealExecutor(t, ds, nil)
	sess, err := exec.Start(context.Background(), planFor(ds, 2, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !sess.Done() {
		if time.Now().After(deadline) {
			t.Fatal("transfer never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The transfer is complete; wait well past it before finishing.
	time.Sleep(500 * time.Millisecond)
	r, err := sess.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if r.Duration <= 0 || r.Duration >= 450*time.Millisecond {
		t.Errorf("Duration = %v includes the caller's delay, not just the transfer", r.Duration)
	}
	if r.Throughput <= 0 {
		t.Errorf("degenerate throughput %v", r.Throughput)
	}
}

// TestSequentialResumeSkipsCompleteChunk: a Sequential plan whose first
// chunk is already complete at the destination must hand the initial
// allocation to the first chunk with work left — not park every channel
// on an empty queue and immediately reallocate.
func TestSequentialResumeSkipsCompleteChunk(t *testing.T) {
	g := dataset.NewGenerator(72)
	a := dataset.Chunk{Class: dataset.Small, Files: g.Uniform(8, 50*units.KB).Files, Parallelism: 1, Pipelining: 2}
	b := dataset.Chunk{Class: dataset.Large, Files: g.Uniform(4, 300*units.KB).Files, Parallelism: 2, Pipelining: 1}
	for i := range b.Files {
		b.Files[i].Name = "lg/" + b.Files[i].Name
	}
	all := dataset.Dataset{Files: append(append([]dataset.File{}, a.Files...), b.Files...)}
	srv := synthServer(t, all, nil)
	have := make(map[string]units.Bytes, len(a.Files))
	for _, f := range a.Files {
		have[f.Name] = f.Size // chunk a fully present at the destination
	}
	reg := obs.NewRegistry()
	sink := NewVerifySink()
	exec := &Executor{
		Client:      &Client{Addr: srv.Addr(), Counters: &Counters{}},
		Sink:        sink,
		Environment: testEnv(),
		Resume:      resumeFrom(t, all.Files, have),
		Metrics:     reg,
		Label:       "seq-resume",
	}
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
	var want units.Bytes
	for _, f := range b.Files {
		want += f.Size
	}
	if r.Bytes != want {
		t.Errorf("moved %v, want the live chunk's %v", r.Bytes, want)
	}
	// The old allocation gave chunk 0 every channel; its workers found an
	// empty queue and booked a reallocation each before touching chunk 1.
	if got := reg.Snapshot().Counters["chunks_reallocated"]; got != 0 {
		t.Errorf("chunks_reallocated = %d, want 0 (initial allocation was resume-blind)", got)
	}
	if bad := sink.Corrupt(); len(bad) > 0 {
		t.Errorf("corruption: %v", bad)
	}
}
