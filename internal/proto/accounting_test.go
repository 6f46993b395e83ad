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

// TestExecutorTwoRunsNoCounterBleed: a second Run on the same Executor
// must report only its own bytes and files, never the first run's on
// top of them.
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
}

// wallEnergy is a constant-power cumulative energy source: it has drawn
// watts since start, across every session that reads it.
type wallEnergy struct {
	start time.Time
	watts float64
}

func (w wallEnergy) Total() (units.Joules, error) {
	return units.Joules(w.watts * time.Since(w.start).Seconds()), nil
}

// TestExecutorSessionsBookOwnEnergy: the energy source is cumulative
// across sessions, so a second session on the same Executor must book
// only the joules drawn since its own Start — in its first window and
// in its report — not the first session's and the idle time's as well.
func TestExecutorSessionsBookOwnEnergy(t *testing.T) {
	const watts = 100.0
	// Joules the report may book beyond watts×Duration: Finish reads the
	// source after the workers have stopped.
	const slack = watts * 0.1
	ds := dataset.NewGenerator(73).Uniform(8, 200*units.KB)
	exec, _ := newRealExecutor(t, ds, nil)
	exec.Energy = wallEnergy{start: time.Now(), watts: watts}
	for run := 0; run < 2; run++ {
		// Idle time the source keeps counting between sessions.
		time.Sleep(300 * time.Millisecond)
		sess, err := exec.Start(context.Background(), planFor(ds, 2, 1, 2))
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		smp, err := sess.Advance(time.Millisecond)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if want := watts * smp.Duration.Seconds(); float64(smp.EndSystemEnergy) > want+slack {
			t.Errorf("run %d: first window booked %v over %v, want ≈ %.2f J", run, smp.EndSystemEnergy, smp.Duration, want)
		}
		r, err := sess.Finish()
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		want := watts * r.Duration.Seconds()
		if got := float64(r.EndSystemEnergy); got < want*0.9 || got > want+slack {
			t.Errorf("run %d: report booked %v over %v, want ≈ %.2f J", run, r.EndSystemEnergy, r.Duration, want)
		}
		if r.AvgPower != units.Power(r.EndSystemEnergy, r.Duration) {
			t.Errorf("run %d: AvgPower %v, want EndSystemEnergy/Duration", run, r.AvgPower)
		}
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
		Client:      &Client{Addr: srv.Addr()},
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
