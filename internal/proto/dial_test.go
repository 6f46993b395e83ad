package proto

import (
	"bytes"
	"context"
	"errors"
	"net"
	"runtime"
	"syscall"
	"testing"
	"time"

	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/obs"
	"github.com/didclab/eta/internal/obs/span"
	"github.com/didclab/eta/internal/transfer"
	"github.com/didclab/eta/internal/units"
)

// deadAddr returns a loopback address nothing listens on: every dial
// is refused.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// runningWorkers counts the goroutines executing an executor worker.
func runningWorkers() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("(*realSession).runWorker")) {
			n++
		}
	}
	return n
}

// waitNoWorkers waits for every executor worker to exit.
func waitNoWorkers(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runningWorkers() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d executor workers still running", runningWorkers())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSetTotalChannelsDoesNotWaitOnDial adds a channel whose first dial
// draws a replica that accepts and never answers. The new worker rides
// out the handshake timeout on its own while the first channel keeps
// moving bytes, so SetTotalChannels returns at once and the session
// completes byte-identically.
func TestSetTotalChannelsDoesNotWaitOnDial(t *testing.T) {
	ds := dataset.NewGenerator(71).Uniform(24, 128*units.KB)
	srv := synthServer(t, ds, func(c *ServerConfig) { c.PerStreamRate = 40 * units.Mbps })
	// Weighted round-robin over two equal replicas: the first channel
	// lands on the live one, the second on the silent one.
	pool, err := NewEndpointPool(Endpoint{Addr: srv.Addr()}, Endpoint{Addr: muteServer(t)})
	if err != nil {
		t.Fatal(err)
	}
	sink := NewVerifySink()
	reg := obs.NewRegistry()
	exec := &Executor{
		Client:      &Client{Endpoints: pool, StallTimeout: 400 * time.Millisecond},
		Sink:        sink,
		Environment: testEnv(),
		MaxRetries:  2,
		Metrics:     reg,
	}
	sess, err := exec.Start(context.Background(), planFor(ds, 1, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := sess.SetTotalChannels(2); err != nil {
		t.Fatalf("SetTotalChannels(2): %v", err)
	}
	if took := time.Since(start); took >= 100*time.Millisecond {
		t.Errorf("SetTotalChannels(2) took %v; it must not wait on the new channel's dial", took)
	}
	r, err := sess.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if r.Bytes != ds.TotalSize() {
		t.Errorf("moved %v of %v", r.Bytes, ds.TotalSize())
	}
	if bad := sink.Corrupt(); len(bad) > 0 {
		t.Errorf("corruption: %v", bad)
	}
	for _, f := range ds.Files {
		if got := sink.BytesFor(f.Name); got != int64(f.Size) {
			t.Errorf("%s: %d of %d bytes", f.Name, got, int64(f.Size))
		}
	}
	// The silent replica's handshake timed out once, charged to it.
	if got := reg.Snapshot().Counters[`endpoint_failures{endpoint="1"}`]; got != 1 {
		t.Errorf("silent replica blamed %d times, want 1", got)
	}
}

// TestFirstDialFollowsFailureRule places the only channel on a refused
// replica first. Placement goes through the worker's budgeted dial loop
// like a re-dial: the failure books one retry and blames endpoint 0,
// and the next attempt lands on the live replica. A first dial is not a
// re-dial.
func TestFirstDialFollowsFailureRule(t *testing.T) {
	ds := dataset.NewGenerator(72).Uniform(6, 64*units.KB)
	srv := synthServer(t, ds, nil)
	pool, err := NewEndpointPool(Endpoint{Addr: deadAddr(t)}, Endpoint{Addr: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	events := obs.NewLog(nil)
	sink := NewVerifySink()
	exec := &Executor{
		Client:      &Client{Endpoints: pool},
		Sink:        sink,
		Environment: testEnv(),
		MaxRetries:  2,
		Metrics:     reg,
		Events:      events,
	}
	r, err := exec.Run(context.Background(), planFor(ds, 1, 1, 2))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r.Bytes != ds.TotalSize() || len(sink.Corrupt()) > 0 {
		t.Errorf("moved %v of %v, corrupt %v", r.Bytes, ds.TotalSize(), sink.Corrupt())
	}
	snap := reg.Snapshot().Counters
	for name, want := range map[string]int64{
		"retries_total":                   1,
		`endpoint_failures{endpoint="0"}`: 1,
		`endpoint_failures{endpoint="1"}`: 0,
		"channels_redialed":               0,
	} {
		if got := snap[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if r.Retries != 1 {
		t.Errorf("Report.Retries = %d, want 1", r.Retries)
	}
	if n := eventCount(events, obs.EvChannelPlaced); n != 1 {
		t.Errorf("%d channel_placed events, want 1", n)
	}
}

// TestDeadServerFailsFinish starts a session against a server that
// refuses every dial. Start succeeds (it does no I/O); the worker books
// one retry per failed dial and fails the session once MaxRetries+1
// dials have failed, and Finish returns with no worker left running.
func TestDeadServerFailsFinish(t *testing.T) {
	ds := dataset.NewGenerator(73).Uniform(2, 64*units.KB)
	reg := obs.NewRegistry()
	exec := &Executor{
		Client:      &Client{Addr: deadAddr(t)},
		Sink:        NewVerifySink(),
		Environment: testEnv(),
		MaxRetries:  2,
		Metrics:     reg,
	}
	sess, err := exec.Start(context.Background(), planFor(ds, 1, 1, 1))
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if _, err := sess.Finish(); !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("Finish error = %v, want errors.Is ECONNREFUSED", err)
	}
	if got := reg.Counter("retries_total").Value(); got != 3 {
		t.Errorf("retries_total = %d, want 3", got)
	}
	if n := runningWorkers(); n != 0 {
		t.Errorf("%d executor workers still running after Finish", n)
	}
}

// closeFailSink is a VerifySink whose Close fails for one file.
type closeFailSink struct {
	*VerifySink
	name string
	err  error
}

func (s closeFailSink) Close(name string) error {
	if name == s.name {
		return s.err
	}
	return s.VerifySink.Close(name)
}

// errDiskFull is the sink failure failAndAbandon injects.
var errDiskFull = errors.New("disk full")

const abandonChannels, abandonPipe = 2, 2

// failAndAbandon starts a session of 40 × 128 KB files at 40 Mbps per
// stream on 2 channels whose sink fails one file's Close with
// errDiskFull, and advances it until that failure surfaces, as HTEE and
// SLAEE do before they return without Finish. It returns the session
// and the gets_issued count when Advance failed.
func failAndAbandon(t *testing.T, exec *Executor) (sess transfer.Session, atErr int64) {
	t.Helper()
	ds := dataset.NewGenerator(74).Uniform(40, 128*units.KB)
	srv := synthServer(t, ds, func(c *ServerConfig) { c.PerStreamRate = 40 * units.Mbps })
	exec.Client = &Client{Addr: srv.Addr()}
	exec.Sink = closeFailSink{VerifySink: NewVerifySink(), name: ds.Files[4].Name, err: errDiskFull}
	exec.Environment = testEnv()
	sess, err := exec.Start(context.Background(), planFor(ds, abandonChannels, 1, abandonPipe))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err = sess.Advance(20 * time.Millisecond); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the sink failure never surfaced through Advance")
		}
	}
	if !errors.Is(err, errDiskFull) {
		t.Fatalf("Advance error = %v, want %v", err, errDiskFull)
	}
	return sess, exec.Metrics.Counter("gets_issued").Value()
}

// TestAbandonedFailedSessionStopsFetching fails a session through its
// sink and then walks away without Finish. The workers must stop on the
// failure instead of pulling every remaining range into the failed sink.
func TestAbandonedFailedSessionStopsFetching(t *testing.T) {
	reg := obs.NewRegistry()
	sess, atErr := failAndAbandon(t, &Executor{Metrics: reg})
	waitNoWorkers(t)
	// A worker may still have been filling its window when the failure
	// landed; nothing past that may be issued.
	if got := reg.Counter("gets_issued").Value(); got > atErr+abandonChannels*abandonPipe {
		t.Errorf("gets_issued went %d → %d of 40 files after the session failed", atErr, got)
	}
	if _, err := sess.Finish(); !errors.Is(err, errDiskFull) {
		t.Errorf("Finish error = %v, want %v", err, errDiskFull)
	}
}

// TestAbandonedFailedSessionEndsSpans traces the abandoned session: once
// its last worker has exited, the transfer root and chunk spans are
// ended with the session's error, and a later Finish ends nothing twice.
func TestAbandonedFailedSessionEndsSpans(t *testing.T) {
	reg := obs.NewRegistry()
	var stream bytes.Buffer
	events := obs.NewLog(&stream)
	tracer := span.NewTracer(reg, events)
	sess, _ := failAndAbandon(t, &Executor{Metrics: reg, Events: events, Trace: tracer})
	waitNoWorkers(t)
	if n := tracer.LiveCount(); n != 0 {
		t.Errorf("%d spans still live after every worker of the failed session exited", n)
	}
	if _, err := sess.Finish(); !errors.Is(err, errDiskFull) {
		t.Errorf("Finish error = %v, want %v", err, errDiskFull)
	}
	forest, err := span.ReadForest(bytes.NewReader(stream.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	span.Attribute(forest)
	if err := forest.Check(0.01); err != nil {
		t.Error(err)
	}
	var roots int
	for _, rec := range forest.Roots {
		if rec.Name != span.NameTransfer {
			continue
		}
		roots++
		if got := rec.Attrs["error"]; got != "disk full" {
			t.Errorf("transfer root error = %v, want %q", got, "disk full")
		}
	}
	if roots != 1 {
		t.Errorf("%d transfer roots, want 1", roots)
	}
}

// TestDrainedWorkerLeavesActiveChannels runs two chunks without
// ReallocOnComplete: the small chunk drains first and its worker exits,
// since it has nowhere to move. From then on Advance reports one active
// channel, the worker still running.
func TestDrainedWorkerLeavesActiveChannels(t *testing.T) {
	const size = 128 * units.KB
	ds := dataset.NewGenerator(75).Uniform(12, size)
	srv := synthServer(t, ds, func(c *ServerConfig) { c.PerStreamRate = 8 * units.Mbps })
	exec := &Executor{
		Client:      &Client{Addr: srv.Addr()},
		Sink:        NewVerifySink(),
		Environment: testEnv(),
	}
	chunk := func(files []dataset.File) transfer.ChunkPlan {
		return transfer.ChunkPlan{
			Chunk:    dataset.Chunk{Class: dataset.Large, Files: files, Parallelism: 1, Pipelining: 1},
			Channels: 1,
			Weight:   1,
		}
	}
	plan := transfer.Plan{Chunks: []transfer.ChunkPlan{chunk(ds.Files[:1]), chunk(ds.Files[1:])}}
	sess, err := exec.Start(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	// Both chunks move at the same per-stream rate, so once two files
	// have landed the one-file chunk has drained; its worker then exits.
	deadline := time.Now().Add(5 * time.Second)
	for sess.Remaining() > ds.TotalSize()-2*size || runningWorkers() > 1 {
		if time.Now().After(deadline) {
			t.Fatalf("the one-file chunk never drained: %v left, %d workers running", sess.Remaining(), runningWorkers())
		}
		time.Sleep(5 * time.Millisecond)
	}
	sample, err := sess.Advance(20 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Done() {
		t.Fatal("the eleven-file chunk finished too early to observe")
	}
	if sample.ActiveChannels != 1 {
		t.Errorf("ActiveChannels = %d after the one-file chunk drained, want 1 (running workers: %d)", sample.ActiveChannels, runningWorkers())
	}
	if r, err := sess.Finish(); err != nil || r.Bytes != ds.TotalSize() {
		t.Errorf("Finish = %v bytes, %v; want %v", r.Bytes, err, ds.TotalSize())
	}
}
