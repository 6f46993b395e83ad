package proto

import (
	"bufio"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/units"
)

// muteServer accepts connections and never writes a byte — the
// degenerate peer that used to hang the client handshake forever.
func muteServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()
	return ln.Addr().String()
}

func TestOpenChannelStallTimeoutBoundsHandshake(t *testing.T) {
	client := &Client{Addr: muteServer(t), StallTimeout: 150 * time.Millisecond}
	start := time.Now()
	if _, err := client.OpenChannel(1); err == nil {
		t.Fatal("handshake against a mute server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("handshake stall took %v to surface; the deadline should bound it near 150ms", elapsed)
	}
}

func TestListStallTimeoutBoundsHandshake(t *testing.T) {
	client := &Client{Addr: muteServer(t), StallTimeout: 150 * time.Millisecond}
	start := time.Now()
	if _, err := client.List(); err == nil {
		t.Fatal("LIST against a mute server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("LIST stall took %v to surface", elapsed)
	}
}

// TestWatchdogIgnoresIdleChannel proves the watchdog is progress-based,
// not deadline-based: a channel with no outstanding requests can sit
// idle far past the stall timeout and still work afterwards.
func TestWatchdogIgnoresIdleChannel(t *testing.T) {
	ds := dataset.NewGenerator(40).Uniform(3, 100*units.KB)
	srv := synthServer(t, ds, nil)
	client := &Client{Addr: srv.Addr(), StallTimeout: 100 * time.Millisecond}
	ch, err := client.OpenChannel(1)
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	time.Sleep(400 * time.Millisecond) // 4× the stall timeout, zero pending
	res, err := ch.Fetch(ds.Files, 2, NewVerifySink())
	if err != nil {
		t.Fatalf("fetch after a long idle failed: %v", err)
	}
	if res.Bytes != ds.TotalSize() {
		t.Errorf("moved %v of %v", res.Bytes, ds.TotalSize())
	}
}

// wedgeServer speaks just enough protocol to let a channel open, then
// swallows every GET without sending a byte back — the cleanest
// possible black-hole: the sockets stay healthy, the data never comes.
func wedgeServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			go func(c net.Conn) {
				br := bufio.NewReader(c)
				for {
					line, err := br.ReadString('\n')
					if err != nil {
						return
					}
					switch {
					case strings.HasPrefix(line, "HELLO"), strings.HasPrefix(line, cmdOpen):
						if _, err := io.WriteString(c, respOK+" 1\n"); err != nil {
							return
						}
					default:
						// DATA registration, GET, QUIT: black-holed.
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestWatchdogConvertsStallToError issues a GET against a server that
// acknowledges the handshake and then goes silent, and checks the
// watchdog turns the wedge into ErrStalled instead of hanging.
func TestWatchdogConvertsStallToError(t *testing.T) {
	client := &Client{Addr: wedgeServer(t), StallTimeout: 150 * time.Millisecond}
	ch, err := client.OpenChannel(1)
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	files := []dataset.File{{Name: "wedged.dat", Size: 1 * units.MB}}
	done := make(chan error, 1)
	go func() {
		_, err := ch.Fetch(files, 1, NewVerifySink())
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrStalled) {
			t.Fatalf("stalled fetch returned %v, want ErrStalled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watchdog never converted the stall into an error")
	}
}

// TestFetchHangsWithoutWatchdog is the control for the test above: the
// identical wedge with no stall timeout keeps Fetch blocked — the
// pre-watchdog behavior this PR exists to fix.
func TestFetchHangsWithoutWatchdog(t *testing.T) {
	client := &Client{Addr: wedgeServer(t)} // StallTimeout zero: unarmed
	ch, err := client.OpenChannel(1)
	if err != nil {
		t.Fatal(err)
	}
	files := []dataset.File{{Name: "wedged.dat", Size: 1 * units.MB}}
	done := make(chan error, 1)
	go func() {
		_, err := ch.Fetch(files, 1, NewVerifySink())
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("fetch returned (%v) through a wedge with no watchdog — it should hang", err)
	case <-time.After(1500 * time.Millisecond):
		// Hung, as expected. Closing the channel unwinds it.
	}
	ch.Close()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("fetch did not unwind after Close")
	}
}

// TestDeadlineWriterTimesOut exercises the server-side write watchdog
// in writeBatch: a peer that stops reading must turn the write into an
// error instead of blocking the session forever.
func TestDeadlineWriterTimesOut(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	start := time.Now()
	bufs := net.Buffers{make([]byte, 64)}
	_, err := writeBatch(c1, &bufs, nil, nil, 100*time.Millisecond)
	if err == nil {
		t.Fatal("write to a never-reading peer succeeded")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Errorf("want a timeout error, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("write stall took %v to surface", elapsed)
	}
}

// TestDeadlineWriterRollsForward: consecutive writes each get a fresh
// deadline — a slow-but-moving peer is never killed.
func TestDeadlineWriterRollsForward(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	go func() {
		buf := make([]byte, 16)
		for {
			if _, err := c2.Read(buf); err != nil {
				return
			}
			time.Sleep(30 * time.Millisecond) // slower than one write, faster than the timeout
		}
	}()
	for i := 0; i < 5; i++ {
		bufs := net.Buffers{make([]byte, 16)}
		if _, err := writeBatch(c1, &bufs, nil, nil, 200*time.Millisecond); err != nil {
			t.Fatalf("write %d through a slow reader failed: %v", i, err)
		}
	}
}

// TestServerStallTimeoutNormalTransfer: an armed server-side write
// watchdog must not disturb a healthy transfer.
func TestServerStallTimeoutNormalTransfer(t *testing.T) {
	ds := dataset.NewGenerator(42).Uniform(5, 200*units.KB)
	srv := synthServer(t, ds, func(c *ServerConfig) {
		c.StallTimeout = 2 * time.Second
	})
	client := &Client{Addr: srv.Addr(), StallTimeout: 2 * time.Second, VerifyChecksums: true}
	ch, err := client.OpenChannel(2)
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	sink := NewVerifySink()
	res, err := ch.Fetch(ds.Files, 2, sink)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != ds.TotalSize() {
		t.Errorf("moved %v of %v", res.Bytes, ds.TotalSize())
	}
	if bad := sink.Corrupt(); len(bad) > 0 {
		t.Errorf("corruption: %v", bad)
	}
}

// TestErrStalledClassification pins the retry-cause taxonomy the
// executor books against the metrics family.
func TestErrStalledClassification(t *testing.T) {
	wrapped := errTagged(ErrStalled, "no bytes for 2s")
	if causeOf(wrapped) != "stall" {
		t.Errorf("wrapped ErrStalled classified as %q", causeOf(wrapped))
	}
	mismatch := errTagged(ErrChecksumMismatch, "file x")
	if causeOf(mismatch) != "checksum" {
		t.Errorf("wrapped ErrChecksumMismatch classified as %q", causeOf(mismatch))
	}
	if causeOf(errors.New("connection reset")) != "transport" {
		t.Errorf("plain error classified as %q", causeOf(errors.New("x")))
	}
}

func errTagged(sentinel error, msg string) error {
	return &taggedErr{sentinel: sentinel, msg: msg}
}

type taggedErr struct {
	sentinel error
	msg      string
}

func (e *taggedErr) Error() string { return e.sentinel.Error() + ": " + e.msg }
func (e *taggedErr) Unwrap() error { return e.sentinel }
