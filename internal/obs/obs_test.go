package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// fixedClock returns a deterministic Clock advancing one second per
// call, so event timestamps in tests are reproducible.
func fixedClock() Clock {
	t0 := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	n := 0
	return func() time.Time {
		n++
		return t0.Add(time.Duration(n) * time.Second)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	var l *Log
	r.Counter("c").Add(5)
	r.Counter("c").Inc()
	r.Gauge("g").Set(1)
	r.Gauge("g").Add(2)
	r.Histogram("h").Observe(3)
	r.Family("f", "k", "v").With("v").Inc()
	l.Emit(EvStallDetected, "k", 1)
	l.SetClock(fixedClock())
	if got := r.Counter("c").Value(); got != 0 {
		t.Errorf("nil counter value = %d", got)
	}
	if s := r.Snapshot(); len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", s)
	}
	if lines := l.Tail(10); lines != nil {
		t.Errorf("nil log tail = %v", lines)
	}
	if l.Err() != nil || l.Seq() != 0 {
		t.Error("nil log err/seq wrong")
	}
}

func TestCountersGaugesFamilies(t *testing.T) {
	r := NewRegistry()
	r.Counter("bytes_received").Add(100)
	r.Counter("bytes_received").Add(23)
	r.Counter("bytes_received").Add(-5) // ignored
	if got := r.Counter("bytes_received").Value(); got != 123 {
		t.Errorf("counter = %d, want 123", got)
	}
	r.Gauge("energy_joules").Set(2.5)
	r.Gauge("energy_joules").Add(0.5)
	if got := r.Gauge("energy_joules").Value(); got != 3.0 {
		t.Errorf("gauge = %v, want 3.0", got)
	}
	f := r.Family("retries_by_cause", "cause", "redial", "get", "other")
	f.With("redial").Inc()
	f.With("redial").Inc()
	f.With("get").Inc()
	// Get-or-create: a later registration's values are ignored.
	if r.Family("retries_by_cause", "cause", "x") != f {
		t.Error("family not shared by name")
	}

	s := r.Snapshot()
	if s.Counters[`retries_by_cause{cause="redial"}`] != 2 {
		t.Errorf("family member missing from snapshot: %v", s.Counters)
	}
	if s.Counters[`retries_by_cause{cause="get"}`] != 1 {
		t.Errorf("family member missing from snapshot: %v", s.Counters)
	}
	// A declared member appears only once it has counted something.
	if _, ok := s.Counters[`retries_by_cause{cause="other"}`]; ok {
		t.Errorf("uncounted family member in snapshot: %v", s.Counters)
	}
}

// TestFamilyBoundedByDeclaredValues: whatever callers pass to With, a
// family holds at most its declared values, and every undeclared value
// counts under the last one.
func TestFamilyBoundedByDeclaredValues(t *testing.T) {
	r := NewRegistry()
	values := []string{"0", "1", "2", "overflow"}
	f := r.Family("picks", "endpoint", values...)
	const n = 10000
	for i := 0; i < n; i++ {
		f.With(fmt.Sprint(i)).Inc()
	}
	series := 0
	for name := range r.Snapshot().Counters {
		if strings.HasPrefix(name, "picks{") {
			series++
		}
	}
	if series > len(values) {
		t.Errorf("%d series for %d declared values", series, len(values))
	}
	for _, v := range values[:3] {
		if got := f.With(v).Value(); got != 1 {
			t.Errorf("picks{endpoint=%q} = %d, want 1", v, got)
		}
	}
	if got := r.Snapshot().Counters[`picks{endpoint="overflow"}`]; got != n-3 {
		t.Errorf("overflow = %d, want %d", got, n-3)
	}
	defer func() {
		if recover() == nil {
			t.Error("a family with no declared values did not panic")
		}
	}()
	r.Family("empty", "k")
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("ms", 1, 10, 100)
	for _, v := range []float64{0.5, 5, 50, 500} {
		h.Observe(v)
	}
	s := h.snapshot()
	if s.Count != 4 || s.Sum != 555.5 {
		t.Errorf("count/sum = %d/%v", s.Count, s.Sum)
	}
	wantCum := []int64{1, 2, 3} // cumulative ≤1, ≤10, ≤100
	for i, b := range s.Buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket %v count = %d, want %d", b.Le, b.Count, wantCum[i])
		}
	}
	if s.Window.Count != 4 || s.Window.Min != 0.5 || s.Window.Max != 500 {
		t.Errorf("window stats wrong: %+v", s.Window)
	}
	// The window slides: after >histWindow observations only the most
	// recent survive.
	for i := 0; i < histWindow+10; i++ {
		h.Observe(1000)
	}
	if w := h.snapshot().Window; w.Min != 1000 || w.Count != histWindow {
		t.Errorf("slid window wrong: %+v", w)
	}
	// Same name returns the same histogram regardless of bounds.
	if r.Histogram("ms", 7) != h {
		t.Error("histogram not shared by name")
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("b").Add(2)
		r.Counter("a").Add(1)
		r.Gauge("z").Set(9)
		r.Family("f", "k", "x").With("x").Inc()
		return r
	}
	var b1, b2 bytes.Buffer
	if err := build().WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Errorf("snapshot JSON not deterministic:\n%s\n%s", b1.String(), b2.String())
	}
}

func TestEventLogEmitAndTail(t *testing.T) {
	var out bytes.Buffer
	l := NewLog(&out)
	l.SetClock(fixedClock())
	l.Emit(EvRecoveryPlanned, "label", "MinE", "bytes", 1024)
	l.Emit(EvChannelPlaced, "file", `na"me`, "offset", int64(0))
	l.Emit(EvStallDetected, "file", `na"me`, "ms", 1.5)

	if l.Seq() != 3 {
		t.Errorf("seq = %d, want 3", l.Seq())
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("wrote %d lines, want 3", len(lines))
	}
	for i, line := range lines {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", i, err, line)
		}
		for _, key := range []string{"seq", "t", "type"} {
			if _, ok := ev[key]; !ok {
				t.Errorf("line %d missing %q: %s", i, key, line)
			}
		}
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first["type"] != EvRecoveryPlanned || first["label"] != "MinE" || first["bytes"] != float64(1024) {
		t.Errorf("first event wrong: %v", first)
	}

	tail := l.Tail(2)
	if len(tail) != 2 {
		t.Fatalf("tail = %d lines, want 2", len(tail))
	}
	if !bytes.Contains(tail[1], []byte(EvStallDetected)) {
		t.Errorf("tail out of order: %s", tail[1])
	}
	if got := l.Tail(0); len(got) != 3 {
		t.Errorf("tail(0) = %d lines, want all 3", len(got))
	}
}

func TestEventLogRingWrap(t *testing.T) {
	l := NewLog(nil)
	l.SetClock(fixedClock())
	for i := 0; i < DefaultRingSize+7; i++ {
		l.Emit("tick", "i", i)
	}
	tail := l.Tail(0)
	if len(tail) != DefaultRingSize {
		t.Fatalf("ring holds %d, want %d", len(tail), DefaultRingSize)
	}
	var last map[string]any
	if err := json.Unmarshal(tail[len(tail)-1], &last); err != nil {
		t.Fatal(err)
	}
	if last["i"] != float64(DefaultRingSize+6) {
		t.Errorf("last event i = %v", last["i"])
	}
	var oldest map[string]any
	if err := json.Unmarshal(tail[0], &oldest); err != nil {
		t.Fatal(err)
	}
	if oldest["i"] != float64(7) {
		t.Errorf("oldest retained i = %v, want 7", oldest["i"])
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("disk full") }

func TestEventLogWriterError(t *testing.T) {
	l := NewLog(failWriter{})
	l.SetClock(fixedClock())
	l.Emit("tick")
	if l.Err() == nil {
		t.Error("writer error not surfaced")
	}
	// The ring still works.
	if len(l.Tail(0)) != 1 {
		t.Error("ring lost the event")
	}
}

// closeRecorder captures writes and records whether Close was called —
// the stand-in for an events file owned by a buffered log.
type closeRecorder struct {
	bytes.Buffer
	closed bool
}

func (c *closeRecorder) Close() error { c.closed = true; return nil }

func TestBufferedLogFlushesOnClose(t *testing.T) {
	rec := &closeRecorder{}
	l := NewBufferedLog(rec, 4096)
	l.SetClock(fixedClock())
	l.Emit("tick", "n", 1)
	// One small event sits in the buffer, not in the writer: that is the
	// point of buffering — and the bug when nothing ever flushes it.
	if rec.Len() != 0 {
		t.Fatalf("event bypassed the buffer: %q", rec.String())
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rec.String(), `"type":"tick"`) {
		t.Errorf("flushed output missing event: %q", rec.String())
	}
	l.Emit("tock", "n", 2)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rec.String(), `"type":"tock"`) {
		t.Errorf("Close did not flush the tail: %q", rec.String())
	}
	if !rec.closed {
		t.Error("Close did not close the owned writer")
	}
}

func TestHTTPServerCloseFlushesLog(t *testing.T) {
	rec := &closeRecorder{}
	log := NewBufferedLog(rec, 8192)
	log.SetClock(fixedClock())
	srv, err := Serve("127.0.0.1:0", HandlerOpts{Registry: NewRegistry(), Log: log})
	if err != nil {
		t.Fatal(err)
	}
	log.Emit("tick")
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rec.String(), `"type":"tick"`) {
		t.Errorf("handler shutdown did not flush buffered events: %q", rec.String())
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	l := NewLog(io.Discard)
	l.SetClock(fixedClock())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("n").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h").Observe(float64(i))
				r.Family("f", "w", "0", "1").With(fmt.Sprint(w % 2)).Inc()
				l.Emit("tick", "w", w)
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("n").Value(); got != 4000 {
		t.Errorf("counter = %d, want 4000", got)
	}
	if got := r.Gauge("g").Value(); got != 4000 {
		t.Errorf("gauge = %v, want 4000", got)
	}
	if l.Seq() != 4000 {
		t.Errorf("seq = %d, want 4000", l.Seq())
	}
}

func TestHTTPEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("bytes_received").Add(42)
	log := NewLog(nil)
	log.SetClock(fixedClock())
	log.Emit(EvChannelPlaced, "sid", 1)
	log.Emit(EvChannelPlaced, "sid", 2)

	srv, err := Serve("127.0.0.1:0", HandlerOpts{Registry: reg, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics not JSON: %v\n%s", err, body)
	}
	if snap.Counters["bytes_received"] != 42 {
		t.Errorf("/metrics counters = %v", snap.Counters)
	}

	resp, err = http.Get("http://" + srv.Addr() + "/events?n=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 1 {
		t.Fatalf("/events?n=1 returned %d lines", len(lines))
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("/events line not JSON: %v", err)
	}
	if ev["sid"] != float64(2) {
		t.Errorf("tail returned wrong event: %v", ev)
	}

	resp, err = http.Get("http://" + srv.Addr() + "/events?n=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad n accepted: %d", resp.StatusCode)
	}
}
