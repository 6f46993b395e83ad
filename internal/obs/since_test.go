package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func emitN(l *Log, n int) {
	for i := 0; i < n; i++ {
		l.Emit("tick", "i", i)
	}
}

func TestTailSinceResumesExactly(t *testing.T) {
	l := NewLog(nil)
	l.SetClock(fixedClock())
	emitN(l, 10)

	lines, missed := l.TailSince(4, 0)
	if missed != 0 {
		t.Errorf("missed = %d on an unwrapped ring", missed)
	}
	if len(lines) != 6 {
		t.Fatalf("TailSince(4) returned %d lines, want 6", len(lines))
	}
	var first struct {
		Seq uint64 `json:"seq"`
	}
	if err := json.Unmarshal(lines[0], &first); err != nil || first.Seq != 5 {
		t.Errorf("first resumed seq = %d (err %v), want 5", first.Seq, err)
	}

	// since at the head: everything already seen.
	if lines, missed := l.TailSince(10, 0); len(lines) != 0 || missed != 0 {
		t.Errorf("TailSince(10) = %d lines, %d missed", len(lines), missed)
	}
	// n caps from the tail end.
	if lines, _ := l.TailSince(0, 3); len(lines) != 3 {
		t.Errorf("TailSince(0, 3) returned %d lines", len(lines))
	}
}

func TestTailSinceReportsDrops(t *testing.T) {
	l := NewLog(nil)
	l.SetClock(fixedClock())
	c := &Counter{}
	l.SetDropCounter(c)
	total := DefaultRingSize + 50
	emitN(l, total)

	if got := l.Dropped(); got != 50 {
		t.Errorf("Dropped = %d, want 50", got)
	}
	if got := c.Value(); got != 50 {
		t.Errorf("drop counter = %d, want 50", got)
	}
	// A consumer that last saw seq 10 lost everything up to the ring's
	// current head.
	lines, missed := l.TailSince(10, 0)
	if len(lines) != DefaultRingSize {
		t.Errorf("resume returned %d lines, ring holds %d", len(lines), DefaultRingSize)
	}
	wantMissed := uint64(total - DefaultRingSize - 10)
	if missed != wantMissed {
		t.Errorf("missed = %d, want %d", missed, wantMissed)
	}
	var nilLog *Log
	if lines, missed := nilLog.TailSince(0, 0); lines != nil || missed != 0 {
		t.Error("nil log TailSince not a no-op")
	}
	if nilLog.Dropped() != 0 {
		t.Error("nil log Dropped not zero")
	}
	nilLog.SetDropCounter(c) // must not panic
}

type fakeSpans struct{}

func (fakeSpans) WriteLiveSpans(w io.Writer) error {
	_, err := io.WriteString(w, `[{"name":"transfer"}]`+"\n")
	return err
}

func TestHTTPEventsSinceAndSpans(t *testing.T) {
	reg := NewRegistry()
	log := NewLog(nil)
	log.SetClock(fixedClock())
	emitN(log, DefaultRingSize+20)

	srv, err := Serve("127.0.0.1:0", HandlerOpts{
		Registry: reg,
		Log:      log,
		Spans:    fakeSpans{},
		Pprof:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, string(body)
	}

	// Resume from an overwritten position: the gap rides the header and
	// the full retained tail comes back (no implicit 100-line cap).
	resp, body := get("/events?since=5")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/events?since=5 -> %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Events-Dropped"); got != "15" {
		t.Errorf("X-Events-Dropped = %q, want 15", got)
	}
	if n := len(strings.Split(strings.TrimSpace(body), "\n")); n != DefaultRingSize {
		t.Errorf("since=5 returned %d lines, want %d", n, DefaultRingSize)
	}

	// since + n bounds the resumed stream.
	_, body = get("/events?since=5&n=7")
	if n := len(strings.Split(strings.TrimSpace(body), "\n")); n != 7 {
		t.Errorf("since=5&n=7 returned %d lines", n)
	}

	if resp, _ := get("/events?since=bogus"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad since accepted: %d", resp.StatusCode)
	}

	// events_dropped mirrors into the registry once the handler wires
	// the counter; emit past the ring again to see it move.
	emitN(log, 1)
	if got := reg.Counter("events_dropped").Value(); got == 0 {
		t.Error("events_dropped counter not wired to the log")
	}

	resp, body = get("/spans")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "transfer") {
		t.Errorf("/spans -> %d %q", resp.StatusCode, body)
	}

	resp, _ = get("/debug/pprof/cmdline")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof not registered with Pprof: true (%d)", resp.StatusCode)
	}
}

func TestHTTPSpansEmptyAndNoPprof(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", HandlerOpts{Log: NewLog(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.TrimSpace(string(body)) != "[]" {
		t.Errorf("/spans without a source = %q, want []", body)
	}
	resp, err = http.Get("http://" + srv.Addr() + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof served without opt-in (%d)", resp.StatusCode)
	}
}
