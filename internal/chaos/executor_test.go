package chaos_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/didclab/eta/internal/chaos"
	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/netem"
	"github.com/didclab/eta/internal/obs"
	"github.com/didclab/eta/internal/proto"
	"github.com/didclab/eta/internal/transfer"
	"github.com/didclab/eta/internal/units"
)

// synthServer starts a transfer server over a synthetic dataset — the
// backend every chaos proxy in this package fronts.
func synthServer(t *testing.T, ds dataset.Dataset, mutate func(*proto.ServerConfig)) *proto.Server {
	t.Helper()
	cfg := proto.ServerConfig{Store: proto.NewSynthStore(ds), Logf: t.Logf}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := proto.ListenAndServe("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

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

func planForChunk(chunk dataset.Chunk, channels int) transfer.Plan {
	return transfer.Plan{
		Chunks: []transfer.ChunkPlan{{Chunk: chunk, Channels: channels, Weight: 1, AcceptRealloc: true}},
	}
}

// assertContent proves byte-identical delivery: every file in the sink
// directory must equal its canonical synthetic content exactly — not
// just "enough bytes arrived", but the same bytes, in their final
// post-retry state.
func assertContent(t *testing.T, dir string, ds dataset.Dataset) {
	t.Helper()
	for _, f := range ds.Files {
		got, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(f.Name)))
		if err != nil {
			t.Errorf("%s never delivered: %v", f.Name, err)
			continue
		}
		want := make([]byte, f.Size)
		proto.FillSynth(f.Name, 0, want)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: delivered content differs from source (%d vs %d bytes)", f.Name, len(got), len(want))
		}
	}
}

func TestExecutorSurvivesConnectionKill(t *testing.T) {
	ds := dataset.NewGenerator(50).Uniform(30, 400*units.KB)
	srv := synthServer(t, ds, func(c *proto.ServerConfig) {
		c.PerStreamRate = 60 * units.Mbps // slow enough that the kill lands mid-flight
	})
	proxy := newProxy(t, srv.Addr(), chaos.Options{})

	sink := proto.NewVerifySink()
	exec := &proto.Executor{
		Client:      &proto.Client{Addr: proxy.Addr(), VerifyChecksums: true},
		Sink:        sink,
		Environment: testEnv(),
		MaxRetries:  4,
	}
	chunk := dataset.Chunk{Class: dataset.Large, Files: ds.Files, Parallelism: 2, Pipelining: 3}
	plan := planForChunk(chunk, 2)

	sess, err := exec.Start(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	// Let the transfer get going, then rip out every connection twice.
	for i := 0; i < 2; i++ {
		time.Sleep(150 * time.Millisecond)
		proxy.KillAll()
	}
	r, err := sess.Finish()
	if err != nil {
		t.Fatalf("transfer did not survive connection kill: %v", err)
	}
	// Retried files re-send bytes, so the wire count may exceed the
	// dataset size — what matters is that every file arrived complete
	// and uncorrupted.
	if r.Bytes < ds.TotalSize() {
		t.Errorf("moved only %v of %v after kills", r.Bytes, ds.TotalSize())
	}
	for _, f := range ds.Files {
		if got := sink.BytesFor(f.Name); got < int64(f.Size) {
			t.Errorf("%s incomplete after retries: %d of %d", f.Name, got, f.Size)
		}
	}
	if bad := sink.Corrupt(); len(bad) > 0 {
		t.Errorf("corruption after retries: %v", bad)
	}
}

func TestExecutorRedialsThroughOutage(t *testing.T) {
	// Kill the listener itself, not just the connections: every re-dial
	// fails until the proxy comes back. The executor must keep retrying
	// within its budget and complete once service is restored.
	ds := dataset.NewGenerator(52).Uniform(24, 400*units.KB)
	srv := synthServer(t, ds, func(c *proto.ServerConfig) {
		c.PerStreamRate = 60 * units.Mbps
	})
	proxy := newProxy(t, srv.Addr(), chaos.Options{})

	reg := obs.NewRegistry()
	sink := proto.NewVerifySink()
	exec := &proto.Executor{
		Client:      &proto.Client{Addr: proxy.Addr(), VerifyChecksums: true},
		Sink:        sink,
		Environment: testEnv(),
		MaxRetries:  16,
		Metrics:     reg,
		Events:      obs.NewLog(nil),
	}
	chunk := dataset.Chunk{Class: dataset.Large, Files: ds.Files, Parallelism: 2, Pipelining: 3}
	sess, err := exec.Start(context.Background(), planForChunk(chunk, 2))
	if err != nil {
		t.Fatal(err)
	}

	time.Sleep(150 * time.Millisecond)
	proxy.Stop()
	// Long enough that re-dials fail repeatedly (backoff starts at 5 ms),
	// short enough that the 16-attempt budget cannot be exhausted.
	time.Sleep(250 * time.Millisecond)
	if err := proxy.Restart(); err != nil {
		t.Fatal(err)
	}

	r, err := sess.Finish()
	if err != nil {
		t.Fatalf("transfer did not survive the outage: %v", err)
	}
	if r.Retries == 0 {
		t.Error("no retries recorded across a full outage")
	}
	if got := reg.Snapshot().Counters["retries_total"]; got != r.Retries {
		t.Errorf("retries_total = %d, report says %d", got, r.Retries)
	}
	for _, f := range ds.Files {
		if got := sink.BytesFor(f.Name); got < int64(f.Size) {
			t.Errorf("%s incomplete after outage: %d of %d", f.Name, got, f.Size)
		}
	}
	if bad := sink.Corrupt(); len(bad) > 0 {
		t.Errorf("corruption after outage: %v", bad)
	}
}

func TestExecutorFailsWithoutRetryBudget(t *testing.T) {
	ds := dataset.NewGenerator(51).Uniform(20, 500*units.KB)
	srv := synthServer(t, ds, func(c *proto.ServerConfig) {
		c.PerStreamRate = 40 * units.Mbps
	})
	proxy := newProxy(t, srv.Addr(), chaos.Options{})
	exec := &proto.Executor{
		Client:      &proto.Client{Addr: proxy.Addr()},
		Sink:        proto.NewVerifySink(),
		Environment: testEnv(),
		MaxRetries:  0,
	}
	chunk := dataset.Chunk{Class: dataset.Large, Files: ds.Files, Parallelism: 1, Pipelining: 2}
	sess, err := exec.Start(context.Background(), planForChunk(chunk, 1))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	proxy.KillAll()
	if _, err := sess.Finish(); err == nil {
		t.Error("zero-retry transfer survived a connection kill")
	}
}

// faultySink is a DirSink whose WriteAt, Preallocate or Close fails
// with a fixed error — a destination that runs out of disk.
type faultySink struct {
	*proto.DirSink
	writeErr, preallocErr, closeErr error
}

func (s faultySink) WriteAt(name string, p []byte, off int64) (int, error) {
	if s.writeErr != nil {
		return 0, s.writeErr
	}
	return s.DirSink.WriteAt(name, p, off)
}

func (s faultySink) Preallocate(name string, size int64) error {
	if s.preallocErr != nil {
		return s.preallocErr
	}
	return s.DirSink.Preallocate(name, size)
}

func (s faultySink) Close(name string) error {
	if s.closeErr != nil {
		return s.closeErr
	}
	return s.DirSink.Close(name)
}

// TestExecutorFailureRule pins the worker's one failure rule, row by
// row: which cause is booked, how many retries are charged, whether the
// endpoint is blamed, whether the channel is kept or re-dialed, and how
// the session ends. One channel, one stream and one GET in flight on a
// one-endpoint pool with MaxRetries 3, so every count is exact: conn 1
// is the data stream and every fault lands inside the first block's
// payload.
func TestExecutorFailureRule(t *testing.T) {
	errDiskFull := errors.New("disk full")
	cases := []struct {
		name string
		step *chaos.Step
		sink func(*proto.DirSink) proto.Sink
		// cause is the retries_by_cause label booked ("" for none).
		cause    string
		retries  int64 // retries_total
		blamed   int64 // endpoint_failures
		redialed int64 // channels_redialed; 0 means the channel was kept
		wantErr  error // nil: the session completes byte-identically
	}{
		{name: "checksum mismatch", step: &chaos.Step{Conn: 1, At: 100_000, Kind: chaos.Corrupt},
			cause: "checksum", retries: 1},
		{name: "stall", step: &chaos.Step{Conn: 1, At: 120_000, Kind: chaos.Stall, Duration: 600 * time.Millisecond},
			cause: "stall", retries: 1, blamed: 1, redialed: 1},
		{name: "transport reset", step: &chaos.Step{Conn: 1, At: 120_000, Kind: chaos.Reset},
			cause: "transport", retries: 1, blamed: 1, redialed: 1},
		{name: "sink WriteAt", sink: func(d *proto.DirSink) proto.Sink { return faultySink{DirSink: d, writeErr: errDiskFull} },
			wantErr: errDiskFull},
		{name: "sink Preallocate", sink: func(d *proto.DirSink) proto.Sink { return faultySink{DirSink: d, preallocErr: errDiskFull} },
			wantErr: errDiskFull},
		{name: "sink Close", sink: func(d *proto.DirSink) proto.Sink { return faultySink{DirSink: d, closeErr: errDiskFull} },
			wantErr: errDiskFull},
		// The listener never comes back: the in-flight range is charged
		// once, then each of the 4 failed re-dials (MaxRetries+1) books a
		// retry of its own and a failure against the endpoint.
		{name: "redial failures past the budget", step: &chaos.Step{Conn: 1, At: 120_000, Kind: chaos.Outage},
			cause: "transport", retries: 5, blamed: 5, wantErr: syscall.ECONNREFUSED},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds := dataset.NewGenerator(53).Uniform(4, 300*units.KB)
			srv := synthServer(t, ds, nil)
			var schedule []chaos.Step
			if tc.step != nil {
				schedule = []chaos.Step{*tc.step}
			}
			proxy := newProxy(t, srv.Addr(), chaos.Options{Schedule: schedule})
			pool, err := proto.NewEndpointPool(proto.Endpoint{Addr: proxy.Addr()})
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			var sink proto.Sink = proto.NewDirSink(dir)
			if tc.sink != nil {
				sink = tc.sink(proto.NewDirSink(dir))
			}
			reg := obs.NewRegistry()
			exec := &proto.Executor{
				Client: &proto.Client{
					Endpoints:       pool,
					VerifyChecksums: true,
					StallTimeout:    150 * time.Millisecond,
				},
				Sink:        sink,
				Environment: testEnv(),
				MaxRetries:  3,
				Metrics:     reg,
			}
			chunk := dataset.Chunk{Class: dataset.Large, Files: ds.Files, Parallelism: 1, Pipelining: 1}
			_, err = exec.Run(context.Background(), planForChunk(chunk, 1))
			switch {
			case tc.wantErr == nil && err != nil:
				t.Fatalf("session failed: %v", err)
			case tc.wantErr == nil:
				assertContent(t, dir, ds)
			case !errors.Is(err, tc.wantErr):
				t.Fatalf("session error = %v, want errors.Is %v", err, tc.wantErr)
			}

			snap := reg.Snapshot().Counters
			var causes, blamed int64
			for k, v := range snap {
				switch {
				case strings.HasPrefix(k, "retries_by_cause{"):
					causes += v
				case strings.HasPrefix(k, "endpoint_failures{"):
					blamed += v
				}
			}
			if got := snap["retries_total"]; got != tc.retries {
				t.Errorf("retries_total = %d, want %d", got, tc.retries)
			}
			if tc.cause != "" {
				if got := snap[`retries_by_cause{cause="`+tc.cause+`"}`]; got != causes {
					t.Errorf("retries booked under %q = %d of %d: %v", tc.cause, got, causes, snap)
				}
			}
			if causes != snap["retries_total"] {
				t.Errorf("retries_by_cause sums to %d, retries_total is %d", causes, snap["retries_total"])
			}
			if blamed != tc.blamed {
				t.Errorf("endpoint_failures = %d, want %d", blamed, tc.blamed)
			}
			if got := snap["channels_redialed"]; got != tc.redialed {
				t.Errorf("channels_redialed = %d, want %d", got, tc.redialed)
			}
			if tc.redialed == 0 {
				if got := snap["channels_dialed"]; got != 1 {
					t.Errorf("channels_dialed = %d, want the one channel kept", got)
				}
			}
		})
	}
}
