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

// TestAbandonedFailedSessionStopsFetching fails a session through its
// sink and then walks away without Finish, as HTEE and SLAEE do when
// Advance returns an error. The workers must stop on the failure
// instead of pulling every remaining range into the failed sink.
func TestAbandonedFailedSessionStopsFetching(t *testing.T) {
	ds := dataset.NewGenerator(74).Uniform(40, 128*units.KB)
	srv := synthServer(t, ds, func(c *ServerConfig) { c.PerStreamRate = 40 * units.Mbps })
	errDiskFull := errors.New("disk full")
	reg := obs.NewRegistry()
	const channels, pipe = 2, 2
	exec := &Executor{
		Client:      &Client{Addr: srv.Addr()},
		Sink:        closeFailSink{VerifySink: NewVerifySink(), name: ds.Files[4].Name, err: errDiskFull},
		Environment: testEnv(),
		Metrics:     reg,
	}
	sess, err := exec.Start(context.Background(), planFor(ds, channels, 1, pipe))
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
	atErr := reg.Counter("gets_issued").Value()
	waitNoWorkers(t)
	// A worker may still have been filling its window when the failure
	// landed; nothing past that may be issued.
	if got := reg.Counter("gets_issued").Value(); got > atErr+channels*pipe {
		t.Errorf("gets_issued went %d → %d of %d files after the session failed", atErr, got, len(ds.Files))
	}
	if _, err := sess.Finish(); !errors.Is(err, errDiskFull) {
		t.Errorf("Finish error = %v, want %v", err, errDiskFull)
	}
}
