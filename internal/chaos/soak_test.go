package chaos_test

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"github.com/didclab/eta/internal/chaos"
	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/obs"
	"github.com/didclab/eta/internal/proto"
	"github.com/didclab/eta/internal/units"
)

// chaosExec wires an executor through a chaos proxy with the stall
// watchdog armed and checksum verification on — the hardened
// configuration the fault matrix exercises.
func chaosExec(t *testing.T, proxyAddr, dir string, reg *obs.Registry, maxRetries int, stall time.Duration) *proto.Executor {
	t.Helper()
	return &proto.Executor{
		Client: &proto.Client{
			Addr:            proxyAddr,
			VerifyChecksums: true,
			StallTimeout:    stall,
		},
		Sink:        proto.NewDirSink(dir),
		Environment: testEnv(),
		MaxRetries:  maxRetries,
		Metrics:     reg,
		Events:      obs.NewLog(nil),
		Label:       "chaos",
	}
}

// TestChaosSoakFaultMatrix runs one loopback transfer per fault class.
// Every case must deliver byte-identical content; the per-kind rows
// assert how the fault was absorbed (redial, checksum re-fetch, or no
// retry at all for a plain latency spike).
func TestChaosSoakFaultMatrix(t *testing.T) {
	// One channel, parallelism 1: conn 0 is control, conn 1 the single
	// data stream, so every fault below lands on the data path. Offsets
	// fall inside the first 256 KiB block's payload (the stream is an
	// 18-byte header followed by the block).
	cases := []struct {
		name         string
		step         chaos.Step
		wantRedial   bool // the channel must be torn down and re-dialed
		wantChecksum bool // absorbed by checksum re-fetch, channel kept
		wantClean    bool // absorbed with no retries at all
	}{
		{"reset", chaos.Step{Conn: 1, At: 120_000, Kind: chaos.Reset}, true, false, false},
		{"stall", chaos.Step{Conn: 1, At: 120_000, Kind: chaos.Stall, Duration: 600 * time.Millisecond}, true, false, false},
		{"blackhole", chaos.Step{Conn: 1, At: 120_000, Kind: chaos.Blackhole}, true, false, false},
		{"corrupt", chaos.Step{Conn: 1, At: 100_000, Kind: chaos.Corrupt}, false, true, false},
		{"partial", chaos.Step{Conn: 1, At: 120_000, Kind: chaos.Partial}, true, false, false},
		{"latency", chaos.Step{Conn: 1, At: 120_000, Kind: chaos.Latency, Duration: 30 * time.Millisecond}, false, false, true},
		{"outage", chaos.Step{Conn: 1, At: 120_000, Kind: chaos.Outage, Duration: 250 * time.Millisecond}, true, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds := dataset.NewGenerator(60).Uniform(8, 300*units.KB)
			srv := synthServer(t, ds, nil)
			reg := obs.NewRegistry()
			proxy := newProxy(t, srv.Addr(), chaos.Options{
				Schedule: []chaos.Step{tc.step},
				Metrics:  reg,
			})
			dir := t.TempDir()
			exec := chaosExec(t, proxy.Addr(), dir, reg, 16, 150*time.Millisecond)
			chunk := dataset.Chunk{Class: dataset.Large, Files: ds.Files, Parallelism: 1, Pipelining: 2}

			r, err := exec.Run(context.Background(), planForChunk(chunk, 1))
			if err != nil {
				t.Fatalf("transfer did not survive %s: %v", tc.name, err)
			}
			assertContent(t, dir, ds)
			if n := proxy.InjectedTotal(); n != 1 {
				t.Errorf("injected %d faults, scripted exactly 1", n)
			}
			snap := reg.Snapshot().Counters
			if got := snap["retries_total"]; got != r.Retries {
				t.Errorf("retries_total = %d, report says %d", got, r.Retries)
			}
			redialed := snap["channels_redialed"]
			switch {
			case tc.wantRedial && redialed == 0:
				t.Errorf("%s did not force a re-dial (retries=%d)", tc.name, r.Retries)
			case tc.wantChecksum:
				if redialed != 0 {
					t.Errorf("checksum re-fetch tore the channel down (%d re-dials)", redialed)
				}
				if got := snap[`retries_by_cause{cause="checksum"}`]; got != 1 {
					t.Errorf(`retries_by_cause{cause="checksum"} = %d, want 1`, got)
				}
			case tc.wantClean && (redialed != 0 || r.Retries != 0):
				t.Errorf("%s should pass clean, saw %d re-dials and %d retries", tc.name, redialed, r.Retries)
			}
			if tc.name == "stall" || tc.name == "blackhole" {
				if got := snap["stalls_detected"]; got < 1 {
					t.Errorf("stalls_detected = %d, watchdog never fired", got)
				}
			}
		})
	}
}

// TestChaosAcceptance is the issue's end-to-end scenario: one transfer
// through a proxy scripted with a data-stream black-hole, a mid-stream
// payload corruption and a full listener outage. It must complete
// byte-identically, book the retries correctly, and leak nothing.
func TestChaosAcceptance(t *testing.T) {
	before := runtime.NumGoroutine()

	ds := dataset.NewGenerator(77).Uniform(10, 400*units.KB)
	srv := synthServer(t, ds, nil)
	reg := obs.NewRegistry()
	// Conn map for 1 channel × parallelism 1: conn 0/1 are the first
	// channel's control/data; after the black-hole forces a re-dial,
	// conns 2/3 are the replacement's. The corruption offset sits inside
	// a 256 KiB block payload on the replacement data stream; the outage
	// fires later on the same stream and auto-restores.
	proxy := newProxy(t, srv.Addr(), chaos.Options{
		Schedule: []chaos.Step{
			{Conn: 1, At: 200_000, Kind: chaos.Blackhole},
			{Conn: 3, At: 150_000, Kind: chaos.Corrupt},
			{Conn: 3, At: 900_000, Kind: chaos.Outage, Duration: 250 * time.Millisecond},
		},
		Metrics: reg,
	})
	dir := t.TempDir()
	exec := chaosExec(t, proxy.Addr(), dir, reg, 16, 150*time.Millisecond)
	chunk := dataset.Chunk{Class: dataset.Large, Files: ds.Files, Parallelism: 1, Pipelining: 2}

	sess, err := exec.Start(context.Background(), planForChunk(chunk, 1))
	if err != nil {
		t.Fatal(err)
	}
	r, err := sess.Finish()
	if err != nil {
		t.Fatalf("transfer did not survive the chaos schedule: %v", err)
	}

	assertContent(t, dir, ds)

	injected := proxy.Injected()
	for _, k := range []chaos.Kind{chaos.Blackhole, chaos.Corrupt, chaos.Outage} {
		if injected[k] != 1 {
			t.Errorf("injected[%s] = %d, want 1 (map: %v)", k, injected[k], injected)
		}
	}
	snap := reg.Snapshot().Counters
	if got := snap["retries_total"]; got != r.Retries {
		t.Errorf("retries_total = %d, report says %d", got, r.Retries)
	}
	if got := snap["channels_redialed"]; got < 2 {
		t.Errorf("channels_redialed = %d, black-hole + outage should force ≥2", got)
	}
	if got := snap[`retries_by_cause{cause="checksum"}`]; got != 1 {
		t.Errorf(`retries_by_cause{cause="checksum"} = %d, want exactly 1`, got)
	}
	if got := snap["stalls_detected"]; got < 1 {
		t.Errorf("stalls_detected = %d, the black-hole should trip the watchdog", got)
	}

	// Tear everything down and prove nothing leaked: the watchdog, pipe
	// and session goroutines must all unwind.
	proxy.Close()
	srv.Close()
	deadline := wallNow().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if wallNow().After(deadline) {
			buf := make([]byte, 1<<17)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d at start, %d after teardown\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestBlackholeHangsWithoutWatchdog demonstrates why the stall watchdog
// exists: the identical black-hole schedule that TestChaosSoakFaultMatrix
// survives makes an un-watched transfer hang indefinitely — the
// connection stays open, so nothing ever errors.
func TestBlackholeHangsWithoutWatchdog(t *testing.T) {
	ds := dataset.NewGenerator(61).Uniform(6, 300*units.KB)
	srv := synthServer(t, ds, nil)
	proxy := newProxy(t, srv.Addr(), chaos.Options{
		Schedule: []chaos.Step{{Conn: 1, At: 120_000, Kind: chaos.Blackhole}},
	})
	dir := t.TempDir()
	exec := chaosExec(t, proxy.Addr(), dir, nil, 2, 0 /* watchdog disabled */)
	chunk := dataset.Chunk{Class: dataset.Large, Files: ds.Files, Parallelism: 1, Pipelining: 2}

	sess, err := exec.Start(context.Background(), planForChunk(chunk, 1))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := sess.Finish()
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("transfer returned (%v) through a black-hole with no watchdog — it should hang", err)
	case <-time.After(2 * time.Second):
		// Hung, as expected: bytes stopped, the socket stayed open, and
		// without a watchdog nothing converts that into an error.
	}
	// Severing the connections un-wedges it (and with the listener gone
	// the re-dial budget exhausts): the session must now unwind.
	proxy.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("hung transfer finished cleanly after losing its proxy")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("session did not unwind after the proxy closed")
	}
}

// TestChaosSoakSeededSchedule drives a transfer through a seed-derived
// schedule spread over control and data connections — the replayable
// "flapping network" soak. Whatever the schedule throws (resets,
// stalls, corruptions, partial writes, latency), delivery must stay
// byte-identical and the retry books must balance.
func TestChaosSoakSeededSchedule(t *testing.T) {
	ds := dataset.NewGenerator(62).Uniform(12, 300*units.KB)
	srv := synthServer(t, ds, nil)
	reg := obs.NewRegistry()
	schedule := chaos.SeededSchedule(42, 8, 3, 1<<20)
	proxy := newProxy(t, srv.Addr(), chaos.Options{
		Schedule: schedule,
		Metrics:  reg,
	})
	dir := t.TempDir()
	exec := chaosExec(t, proxy.Addr(), dir, reg, 32, 200*time.Millisecond)
	chunk := dataset.Chunk{Class: dataset.Large, Files: ds.Files, Parallelism: 2, Pipelining: 2}

	r, err := exec.Run(context.Background(), planForChunk(chunk, 1))
	if err != nil {
		t.Fatalf("transfer did not survive seeded schedule %+v: %v", schedule, err)
	}
	assertContent(t, dir, ds)
	if got := reg.Snapshot().Counters["retries_total"]; got != r.Retries {
		t.Errorf("retries_total = %d, report says %d", got, r.Retries)
	}
	if n := proxy.InjectedTotal(); n > 8 {
		t.Errorf("injected %d faults from an 8-step schedule", n)
	}
	t.Logf("seeded soak: injected=%v retries=%d redials=%d",
		proxy.Injected(), r.Retries, reg.Snapshot().Counters["channels_redialed"])
}

// TestChaosSoakVectoredPath drives the vectored writev data plane
// through a seeded fault schedule: an unshaped server with
// observability on, whose 600 KB files span five 128 KB blocks, must
// deliver byte-identical content through corruption and resets, with
// the client/server retry books reconciled and every served block
// accounted to a writev.
func TestChaosSoakVectoredPath(t *testing.T) {
	ds := dataset.NewGenerator(63).Uniform(10, 600*units.KB)
	srvReg := obs.NewRegistry()
	srv := synthServer(t, ds, func(c *proto.ServerConfig) {
		c.Metrics = srvReg
		c.BlockSize = 128 * 1024
	})
	reg := obs.NewRegistry()
	schedule := chaos.SeededSchedule(7, 6, 3, 1<<20)
	proxy := newProxy(t, srv.Addr(), chaos.Options{
		Schedule: schedule,
		Metrics:  reg,
	})
	dir := t.TempDir()
	exec := chaosExec(t, proxy.Addr(), dir, reg, 32, 200*time.Millisecond)
	chunk := dataset.Chunk{Class: dataset.Large, Files: ds.Files, Parallelism: 2, Pipelining: 2}

	r, err := exec.Run(context.Background(), planForChunk(chunk, 1))
	if err != nil {
		t.Fatalf("vectored transfer did not survive schedule %+v: %v", schedule, err)
	}
	assertContent(t, dir, ds)
	if got := reg.Snapshot().Counters["retries_total"]; got != r.Retries {
		t.Errorf("retries_total = %d, report says %d", got, r.Retries)
	}
	srvSnap := srvReg.Snapshot().Counters
	batches, blocks := srvSnap["server_writev_batches"], srvSnap["server_writev_blocks"]
	if batches == 0 || blocks == 0 {
		t.Fatalf("vectored path idle: batches=%d blocks=%d", batches, blocks)
	}
	if batches > blocks {
		t.Errorf("writev_batches %d exceeds writev_blocks %d", batches, blocks)
	}
	// Every block the server pushed left through a writev —
	// including blocks re-served on retry, which is why blocks is
	// compared to bytes actually served rather than the dataset size.
	wantBlocks := int64(0)
	for _, f := range ds.Files {
		wantBlocks += (int64(f.Size) + 128*1024 - 1) / (128 * 1024)
	}
	if blocks < wantBlocks {
		t.Errorf("writev_blocks = %d, want at least %d (one clean pass)", blocks, wantBlocks)
	}
	t.Logf("vectored soak: batches=%d blocks=%d retries=%d", batches, blocks, r.Retries)
}

// TestChaosSoakSendfilePath drives the copy-free serve path through a
// seeded fault schedule: a DirStore server whose CRC sidecar one clean
// pass has warmed sends its blocks by sendfile, and must still deliver
// byte-identical content through corruption and resets with the retry
// books reconciled.
func TestChaosSoakSendfilePath(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the sendfile serve path is Linux-only")
	}
	ds := dataset.NewGenerator(64).Uniform(10, 600*units.KB)
	src := t.TempDir()
	for _, f := range ds.Files {
		content := make([]byte, f.Size)
		proto.FillSynth(f.Name, 0, content)
		path := filepath.Join(src, filepath.FromSlash(f.Name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	srvReg := obs.NewRegistry()
	srv, err := proto.ListenAndServe("127.0.0.1:0", proto.ServerConfig{
		Store:     proto.DirStore{Root: src},
		Metrics:   srvReg,
		BlockSize: 128 * 1024,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	chunk := dataset.Chunk{Class: dataset.Large, Files: ds.Files, Parallelism: 2, Pipelining: 2}

	warm := chaosExec(t, srv.Addr(), t.TempDir(), obs.NewRegistry(), 0, 200*time.Millisecond)
	if _, err := warm.Run(context.Background(), planForChunk(chunk, 1)); err != nil {
		t.Fatalf("warm-up pass: %v", err)
	}
	sendfiles := srvReg.Counter("server_sendfile_blocks")
	warmSendfiles := sendfiles.Value()

	reg := obs.NewRegistry()
	schedule := chaos.SeededSchedule(64, 8, 3, 1<<20)
	proxy := newProxy(t, srv.Addr(), chaos.Options{
		Schedule: schedule,
		Metrics:  reg,
	})
	dir := t.TempDir()
	exec := chaosExec(t, proxy.Addr(), dir, reg, 32, 200*time.Millisecond)
	r, err := exec.Run(context.Background(), planForChunk(chunk, 1))
	if err != nil {
		t.Fatalf("sendfile transfer did not survive schedule %+v: %v", schedule, err)
	}
	assertContent(t, dir, ds)
	if got := reg.Snapshot().Counters["retries_total"]; got != r.Retries {
		t.Errorf("retries_total = %d, report says %d", got, r.Retries)
	}
	n := sendfiles.Value() - warmSendfiles
	if n == 0 {
		t.Fatal("no block went by sendfile after the warm-up pass")
	}
	t.Logf("sendfile soak: injected=%v sendfile_blocks=%d retries=%d", proxy.Injected(), n, r.Retries)
}
