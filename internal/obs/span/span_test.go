package span

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/didclab/eta/internal/obs"
)

// manualClock is a hand-advanced obs.Clock for deterministic span times.
type manualClock struct {
	mu sync.Mutex
	t  time.Time
}

func newManualClock() *manualClock {
	return &manualClock{t: time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)}
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// parseEvents splits a JSONL buffer into decoded event maps.
func parseEvents(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		out = append(out, ev)
	}
	return out
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	tr.SetClock(newManualClock().Now)
	tr.EnergySample(5)
	if s := tr.Root("x"); s != nil {
		t.Error("nil tracer minted a span")
	}
	if s := tr.StartChild(nil, "x"); s != nil {
		t.Error("nil tracer minted a child")
	}
	if tr.LiveCount() != 0 {
		t.Error("nil tracer has live spans")
	}
	var buf bytes.Buffer
	if err := tr.WriteLiveSpans(&buf); err != nil || strings.TrimSpace(buf.String()) != "[]" {
		t.Errorf("nil tracer WriteLiveSpans = %q, %v", buf.String(), err)
	}

	var s *Span
	if s.Child("y") != nil {
		t.Error("nil span minted a child")
	}
	s.AddBytes(10)
	s.End()
	if s.ID() != 0 || s.Trace() != "" {
		t.Error("nil span accessors not zero")
	}
}

func TestSpanEventsAndMetrics(t *testing.T) {
	clk := newManualClock()
	var buf bytes.Buffer
	log := obs.NewLog(&buf)
	log.SetClock(clk.Now)
	reg := obs.NewRegistry()
	tr := NewTracer(reg, log)
	tr.SetClock(clk.Now)

	root := tr.Root(NameTransfer, "label", "unit")
	clk.Advance(10 * time.Millisecond)
	child := root.Child(NameGet, "file", "f0")
	if child.Trace() != root.Trace() {
		t.Errorf("child trace %q != root trace %q", child.Trace(), root.Trace())
	}
	if tr.LiveCount() != 2 {
		t.Errorf("LiveCount = %d, want 2", tr.LiveCount())
	}
	child.AddBytes(100)
	child.AddBytes(28)
	child.AddBytes(-5) // ignored
	clk.Advance(40 * time.Millisecond)
	child.End()
	clk.Advance(50 * time.Millisecond)
	root.End("error", "boom")
	if tr.LiveCount() != 0 {
		t.Errorf("LiveCount = %d after ending everything", tr.LiveCount())
	}
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}

	evs := parseEvents(t, &buf)
	if len(evs) != 4 {
		t.Fatalf("%d events, want 2 begins + 2 ends", len(evs))
	}
	begin, end := evs[1], evs[2] // child begin, child end
	if begin["type"] != obs.EvSpanBegin || begin["name"] != NameGet || begin["file"] != "f0" {
		t.Errorf("child begin event %v", begin)
	}
	if begin["parent"].(float64) != float64(root.ID()) {
		t.Errorf("child parent = %v, root id %d", begin["parent"], root.ID())
	}
	if end["type"] != obs.EvSpanEnd {
		t.Fatalf("event order: %v", end)
	}
	if got := end["dur_ms"].(float64); got != 40 {
		t.Errorf("child dur_ms = %v, want 40", got)
	}
	if got := end["bytes"].(float64); got != 128 {
		t.Errorf("child bytes = %v, want 128", got)
	}
	if evs[3]["error"] != "boom" {
		t.Errorf("root end attrs %v", evs[3])
	}

	if got := reg.Counter("spans_started").Value(); got != 2 {
		t.Errorf("spans_started = %d", got)
	}
	if got := reg.Counter("spans_finished").Value(); got != 2 {
		t.Errorf("spans_finished = %d", got)
	}
}

func TestRootSpansGetDistinctTraces(t *testing.T) {
	tr := NewTracer(nil, nil)
	a, b := tr.Root("a"), tr.Root("b")
	defer a.End()
	defer b.End()
	if a.Trace() == b.Trace() {
		t.Errorf("two roots share trace %q", a.Trace())
	}
	if a.ID() == b.ID() {
		t.Errorf("two spans share id %d", a.ID())
	}
}

func TestOnlineEnergyEstimate(t *testing.T) {
	clk := newManualClock()
	var buf bytes.Buffer
	log := obs.NewLog(&buf)
	tr := NewTracer(nil, log)
	tr.SetClock(clk.Now)

	tr.EnergySample(0)
	clk.Advance(1 * time.Second)
	tr.EnergySample(10) // 10 W implied

	s := tr.Root("work") // startJ = 10
	clk.Advance(2 * time.Second)
	s.End()
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	evs := parseEvents(t, &buf)
	endEv := evs[len(evs)-1]
	if got := endEv["joules"].(float64); got != 20 {
		t.Errorf("span_end joules = %v, want 20 (10W x 2s)", got)
	}

	// Unprimed tracer estimates zero, never negative.
	var buf2 bytes.Buffer
	log2 := obs.NewLog(&buf2)
	tr2 := NewTracer(nil, log2)
	tr2.SetClock(clk.Now)
	s2 := tr2.Root("idle")
	clk.Advance(time.Second)
	s2.End()
	if err := log2.Flush(); err != nil {
		t.Fatal(err)
	}
	evs2 := parseEvents(t, &buf2)
	if got := evs2[len(evs2)-1]["joules"].(float64); got != 0 {
		t.Errorf("unprimed span_end joules = %v, want 0", got)
	}
}

func TestEndIsIdempotent(t *testing.T) {
	var buf bytes.Buffer
	log := obs.NewLog(&buf)
	tr := NewTracer(nil, log)
	s := tr.Root("once")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.End()
		}()
	}
	wg.Wait()
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	ends := 0
	for _, ev := range parseEvents(t, &buf) {
		if ev["type"] == obs.EvSpanEnd {
			ends++
		}
	}
	if ends != 1 {
		t.Errorf("%d span_end events after racing Ends, want 1", ends)
	}
}

func TestWriteLiveSpans(t *testing.T) {
	clk := newManualClock()
	tr := NewTracer(nil, nil)
	tr.SetClock(clk.Now)
	tr.EnergySample(0)
	clk.Advance(time.Second)
	tr.EnergySample(7)

	s := tr.Root(NameChannel, "endpoint", "a")
	s.AddBytes(512)
	clk.Advance(3 * time.Second)

	var buf bytes.Buffer
	if err := tr.WriteLiveSpans(&buf); err != nil {
		t.Fatal(err)
	}
	var live []struct {
		Name   string  `json:"name"`
		AgeMS  float64 `json:"age_ms"`
		Bytes  int64   `json:"bytes"`
		Joules float64 `json:"joules_est"`
	}
	if err := json.Unmarshal(buf.Bytes(), &live); err != nil {
		t.Fatalf("live spans not JSON: %v\n%s", err, buf.String())
	}
	if len(live) != 1 || live[0].Name != NameChannel {
		t.Fatalf("live = %+v", live)
	}
	if live[0].AgeMS != 3000 || live[0].Bytes != 512 {
		t.Errorf("age %v bytes %d", live[0].AgeMS, live[0].Bytes)
	}
	if live[0].Joules != 21 { // 7 W x 3 s
		t.Errorf("joules_est = %v, want 21", live[0].Joules)
	}

	s.End()
	buf.Reset()
	if err := tr.WriteLiveSpans(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Errorf("live spans after End = %q", got)
	}
}
