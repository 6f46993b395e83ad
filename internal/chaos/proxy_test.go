package chaos_test

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"github.com/didclab/eta/internal/chaos"
	"github.com/didclab/eta/internal/obs"
	"github.com/didclab/eta/internal/obs/span"
)

// wallNow reads the real clock. The chaos *package* is deterministic
// (byte-offset-triggered faults), but its tests drive real TCP sockets
// whose deadlines and timeouts are inherently wall-clock.
func wallNow() time.Time {
	return time.Now() //lint:allow nodeterm real-socket deadlines and test timeouts
}

// pattern returns size deterministic bytes — the reference content the
// raw-TCP proxy tests compare against.
func pattern(size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(i*7 + 3)
	}
	return b
}

// patternServer writes pattern(size) to every accepted connection and
// closes it — a minimal backend for exercising the proxy's fault paths
// without the transfer protocol in the way.
func patternServer(t *testing.T, size int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				_, _ = c.Write(pattern(size))
			}(conn)
		}
	}()
	return ln.Addr().String()
}

func newProxy(t *testing.T, backend string, opts chaos.Options) *chaos.Proxy {
	t.Helper()
	p, err := chaos.New(backend, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// readThrough dials the proxy and reads until EOF or error.
func readThrough(t *testing.T, addr string) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetReadDeadline(wallNow().Add(10 * time.Second))
	got, _ := io.ReadAll(conn)
	return got
}

func TestProxyForwardsUntouchedWithoutSchedule(t *testing.T) {
	const size = 200 * 1024
	backend := patternServer(t, size)
	proxy := newProxy(t, backend, chaos.Options{})
	got := readThrough(t, proxy.Addr())
	if !bytes.Equal(got, pattern(size)) {
		t.Fatalf("plain forwarding changed the stream: got %d bytes", len(got))
	}
	if n := proxy.InjectedTotal(); n != 0 {
		t.Errorf("injected %d faults with an empty schedule", n)
	}
}

func TestProxyCorruptFlipsExactlyOneByte(t *testing.T) {
	const size, target = 100 * 1024, int64(64*1024 + 123)
	backend := patternServer(t, size)
	reg := obs.NewRegistry()
	var events bytes.Buffer
	proxy := newProxy(t, backend, chaos.Options{
		Schedule: []chaos.Step{{Conn: 0, At: target, Kind: chaos.Corrupt}},
		Metrics:  reg,
		Trace:    span.NewTracer(nil, obs.NewLog(&events)),
	})
	got := readThrough(t, proxy.Addr())
	want := pattern(size)
	if len(got) != size {
		t.Fatalf("read %d of %d bytes", len(got), size)
	}
	for i := range got {
		switch {
		case int64(i) == target && got[i] != want[i]^0xFF:
			t.Fatalf("byte %d = %02x, want corrupted %02x", i, got[i], want[i]^0xFF)
		case int64(i) != target && got[i] != want[i]:
			t.Fatalf("byte %d damaged (%02x != %02x); corruption must touch only offset %d", i, got[i], want[i], target)
		}
	}
	if n := proxy.Injected()[chaos.Corrupt]; n != 1 {
		t.Errorf("corrupt count = %d, want 1", n)
	}
	proxy.Close() // join pipes so the event buffer is quiescent
	if got := reg.Snapshot().Counters[`chaos_faults_injected{kind="corrupt"}`]; got != 1 {
		t.Errorf(`chaos_faults_injected{kind="corrupt"} = %d, want 1`, got)
	}
	forest, err := span.ReadForest(bytes.NewReader(events.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var faults []*span.Record
	for _, rec := range forest.ByID {
		if rec.Name == span.NameChaosFault {
			faults = append(faults, rec)
		}
	}
	if len(faults) != 1 || faults[0].Open || faults[0].Attrs["kind"] != string(chaos.Corrupt) ||
		faults[0].Attrs["at"] != float64(target) || faults[0].Attrs["stream_off"] == nil {
		t.Fatalf("want one closed chaos_fault span with kind=corrupt at %d, got %d: %s", target, len(faults), events.String())
	}
}

func TestProxyResetSeversMidStream(t *testing.T) {
	const size = 512 * 1024
	backend := patternServer(t, size)
	proxy := newProxy(t, backend, chaos.Options{
		Schedule: []chaos.Step{{Conn: 0, At: 100 * 1024, Kind: chaos.Reset}},
	})
	got := readThrough(t, proxy.Addr())
	if len(got) >= size {
		t.Fatalf("full stream arrived through a reset (%d bytes)", len(got))
	}
	if !bytes.Equal(got, pattern(size)[:len(got)]) {
		t.Error("bytes delivered before the reset were damaged")
	}
	if n := proxy.Injected()[chaos.Reset]; n != 1 {
		t.Errorf("reset count = %d, want 1", n)
	}
}

func TestProxyPartialTruncatesThenSevers(t *testing.T) {
	const size = 512 * 1024
	backend := patternServer(t, size)
	proxy := newProxy(t, backend, chaos.Options{
		Schedule: []chaos.Step{{Conn: 0, At: 100 * 1024, Kind: chaos.Partial}},
	})
	got := readThrough(t, proxy.Addr())
	if len(got) >= size {
		t.Fatalf("full stream arrived through a partial write (%d bytes)", len(got))
	}
	if !bytes.Equal(got, pattern(size)[:len(got)]) {
		t.Error("bytes delivered before the truncation were damaged")
	}
}

func TestProxyStallPausesThenDeliversEverything(t *testing.T) {
	const size = 64 * 1024
	const hold = 150 * time.Millisecond
	backend := patternServer(t, size)
	proxy := newProxy(t, backend, chaos.Options{
		Schedule: []chaos.Step{{Conn: 0, At: 1024, Kind: chaos.Stall, Duration: hold}},
	})
	start := wallNow()
	got := readThrough(t, proxy.Addr())
	if elapsed := wallNow().Sub(start); elapsed < hold {
		t.Errorf("stream finished in %v, stall should hold it ≥%v", elapsed, hold)
	}
	if !bytes.Equal(got, pattern(size)) {
		t.Fatalf("content damaged across a stall: got %d bytes", len(got))
	}
}

func TestProxyRoutesStepsByAcceptOrder(t *testing.T) {
	const size = 64 * 1024
	backend := patternServer(t, size)
	proxy := newProxy(t, backend, chaos.Options{
		Schedule: []chaos.Step{{Conn: 1, At: 2048, Kind: chaos.Corrupt}},
	})
	// Conn 0 has no scripted steps and must arrive untouched; conn 1 is
	// the corruption target.
	first := readThrough(t, proxy.Addr())
	second := readThrough(t, proxy.Addr())
	if !bytes.Equal(first, pattern(size)) {
		t.Error("conn 0 damaged by a step targeting conn 1")
	}
	if bytes.Equal(second, pattern(size)) {
		t.Error("conn 1 escaped its scripted corruption")
	}
}

func TestProxyOutageDropsServiceThenRestores(t *testing.T) {
	const size = 512 * 1024
	backend := patternServer(t, size)
	proxy := newProxy(t, backend, chaos.Options{
		Schedule: []chaos.Step{{Conn: 0, At: 1024, Kind: chaos.Outage, Duration: 250 * time.Millisecond}},
	})
	got := readThrough(t, proxy.Addr()) // triggers the outage mid-stream
	if len(got) >= size {
		t.Fatalf("full stream arrived through an outage (%d bytes)", len(got))
	}
	// Immediately after the outage fires, new dials must fail.
	if conn, err := net.Dial("tcp", proxy.Addr()); err == nil {
		conn.Close()
		t.Fatal("dial succeeded during the outage window")
	}
	// ... and succeed again once the listener is restored.
	deadline := wallNow().Add(5 * time.Second)
	for {
		got := readThrough2(proxy.Addr())
		if bytes.Equal(got, pattern(size)) {
			break
		}
		if wallNow().After(deadline) {
			t.Fatal("service never restored after the scripted outage")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := proxy.Injected()[chaos.Outage]; n != 1 {
		t.Errorf("outage count = %d, want 1", n)
	}
}

// readThrough2 is readThrough without the test-failing dial: outage
// polling expects dials to fail for a while.
func readThrough2(addr string) []byte {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil
	}
	defer conn.Close()
	_ = conn.SetReadDeadline(wallNow().Add(10 * time.Second))
	got, _ := io.ReadAll(conn)
	return got
}

func TestProxyManualStopRestartKillAll(t *testing.T) {
	const size = 32 * 1024
	backend := patternServer(t, size)
	proxy := newProxy(t, backend, chaos.Options{})

	if got := readThrough(t, proxy.Addr()); !bytes.Equal(got, pattern(size)) {
		t.Fatal("baseline read through proxy failed")
	}
	proxy.Stop()
	if conn, err := net.Dial("tcp", proxy.Addr()); err == nil {
		conn.Close()
		t.Fatal("dial succeeded while stopped")
	}
	if err := proxy.Restart(); err != nil {
		t.Fatal(err)
	}
	if err := proxy.Restart(); err != nil {
		t.Fatalf("restart while listening should be a no-op: %v", err)
	}
	if got := readThrough(t, proxy.Addr()); !bytes.Equal(got, pattern(size)) {
		t.Fatal("read through restarted proxy failed")
	}

	// KillAll severs live connections but keeps accepting.
	conn, err := net.Dial("tcp", proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	proxy.KillAll()
	_ = conn.SetReadDeadline(wallNow().Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, conn); err == nil {
		// io.Copy returns nil on EOF — a severed conn may surface as EOF
		// or a reset; either way the stream must be short.
	}
	if got := readThrough(t, proxy.Addr()); !bytes.Equal(got, pattern(size)) {
		t.Fatal("new dial after KillAll failed")
	}
}
