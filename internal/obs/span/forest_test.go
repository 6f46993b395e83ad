package span

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// streamBuilder assembles a synthetic JSONL events stream with exact
// timestamps, the shape ReadForest consumes.
type streamBuilder struct {
	buf   bytes.Buffer
	seq   int
	epoch time.Time
}

func newStream() *streamBuilder {
	return &streamBuilder{epoch: time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)}
}

func (b *streamBuilder) at(off time.Duration) string {
	return b.epoch.Add(off).Format(time.RFC3339Nano)
}

func (b *streamBuilder) line(typ string, off time.Duration, kv string) {
	b.seq++
	fmt.Fprintf(&b.buf, `{"seq":%d,"t":%q,"type":%q,%s}`+"\n", b.seq, b.at(off), typ, kv)
}

// span writes a begin at off and, when dur >= 0, an end carrying dur_ms
// (ReadForest anchors End = Start + dur_ms).
func (b *streamBuilder) span(id, parent uint64, name string, off, dur time.Duration) {
	b.line("span_begin", off, fmt.Sprintf(`"trace":"t1","span":%d,"parent":%d,"name":%q`, id, parent, name))
	if dur >= 0 {
		b.line("span_end", off+dur, fmt.Sprintf(
			`"trace":"t1","span":%d,"parent":%d,"name":%q,"dur_ms":%v,"bytes":0,"joules":0`,
			id, parent, name, float64(dur)/float64(time.Millisecond)))
	}
}

func (b *streamBuilder) energy(off time.Duration, joules float64) {
	b.line("energy_model_sample", off, fmt.Sprintf(`"joules_total":%v`, joules))
}

func (b *streamBuilder) forest(t *testing.T) *Forest {
	t.Helper()
	f, err := ReadForest(&b.buf)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestReadForestShapes(t *testing.T) {
	b := newStream()
	b.span(1, 0, NameTransfer, 0, 10*time.Second)
	b.span(2, 1, NameChunk, 0, 9*time.Second)
	b.span(3, 1, "leaky", time.Second, -1)                    // begin, no end
	b.span(4, 99, "orphan", 2*time.Second, time.Second)       // parent never seen
	b.line("span_end", 3*time.Second, `"span":77,"dur_ms":1`) // dangling end
	b.line("metric_flush", 0, `"n":1`)                        // unrelated event type

	f := b.forest(t)
	if f.SpanCount() != 4 {
		t.Errorf("SpanCount = %d, want 4", f.SpanCount())
	}
	if len(f.Leaked) != 1 || f.Leaked[0].ID != 3 {
		t.Errorf("Leaked = %+v", f.Leaked)
	}
	if f.Dangling != 1 {
		t.Errorf("Dangling = %d", f.Dangling)
	}
	// Roots: the transfer plus the orphan promoted for its missing parent.
	if len(f.Roots) != 2 {
		t.Fatalf("%d roots, want 2", len(f.Roots))
	}
	root := f.ByID[1]
	if len(root.Children) != 2 {
		t.Errorf("root has %d children, want chunk + leaky", len(root.Children))
	}
	if got := f.ByID[2].End; !got.Equal(b.epoch.Add(9 * time.Second)) {
		t.Errorf("chunk End = %v, want start+dur", got)
	}
}

// TestReadForestRejectsParentCycles: a span on a parent cycle is never
// reached from a root, so ReadForest names it instead of returning a
// forest that counts it but shows it in no tree.
func TestReadForestRejectsParentCycles(t *testing.T) {
	for _, c := range []struct {
		name  string
		spans [][2]uint64 // {id, parent}
		want  uint64      // the span the error names
	}{
		{"self-parent", [][2]uint64{{1, 1}}, 1},
		{"two-cycle", [][2]uint64{{1, 0}, {2, 3}, {3, 2}, {4, 2}}, 2},
	} {
		b := newStream()
		for _, sp := range c.spans {
			b.span(sp[0], sp[1], NameTransfer, 0, time.Second)
		}
		f, err := ReadForest(&b.buf)
		if err == nil {
			t.Errorf("%s: ReadForest accepted the cycle: %d spans, %d roots", c.name, f.SpanCount(), len(f.Roots))
			continue
		}
		var pc parentCycleError
		if !errors.As(err, &pc) || pc.span != c.want {
			t.Errorf("%s: error %v, want one naming span %d", c.name, err, c.want)
		}
	}
}

// TestReadForestLoopbackRecording reads a recorded loopback transfer
// (energytransfer -trace): the root keeps its planned byte total apart
// from the delivered bytes its end reported, and the forest passes
// Check.
func TestReadForestLoopbackRecording(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "loopback.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := ReadForest(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Roots) != 1 || f.Roots[0].Name != NameTransfer {
		t.Fatalf("roots %+v, want one transfer", f.Roots)
	}
	root := f.Roots[0]
	if root.PlannedBytes != 2000000 || root.Bytes != 2000000 {
		t.Errorf("root planned %d, delivered %d; want 2000000 both", root.PlannedBytes, root.Bytes)
	}
	if _, ok := root.Attrs["bytes"]; ok {
		t.Errorf("envelope key bytes leaked into Attrs: %v", root.Attrs)
	}
	Attribute(f)
	if err := f.Check(0.01); err != nil {
		t.Error(err)
	}
}

// TestForestCheck: each broken identity is reported, all of them in one
// error.
func TestForestCheck(t *testing.T) {
	if err := (&Forest{ByID: map[uint64]*Record{}}).Check(0.01); err == nil {
		t.Error("empty forest passed Check")
	}

	b := newStream()
	b.span(1, 0, NameTransfer, 0, 10*time.Second)
	b.energy(0, 0)
	b.energy(10*time.Second, 100)
	f := b.forest(t)
	Attribute(f)
	if err := f.Check(0.01); err != nil {
		t.Fatalf("balanced, fully covered forest failed Check: %v", err)
	}

	// Energy past the last span end is unattributed: the coverage
	// identity breaks while the accounting identity still holds.
	b = newStream()
	b.span(1, 0, NameTransfer, 0, 5*time.Second)
	b.span(2, 0, "leaky", time.Second, -1)
	b.line("span_end", 3*time.Second, `"span":77,"dur_ms":1`)
	b.energy(0, 0)
	b.energy(10*time.Second, 100)
	f = b.forest(t)
	Attribute(f)
	err := f.Check(0.01)
	if err == nil {
		t.Fatal("leaked, dangling, half-covered forest passed Check")
	}
	msg := err.Error()
	for _, want := range []string{"1 leaked spans", "map[leaky:1]", "1 dangling", "per-span joules sum 50.000J"} {
		if !strings.Contains(msg, want) {
			t.Errorf("Check error lacks %q:\n%s", want, msg)
		}
	}
	if strings.Contains(msg, "accounting broken") {
		t.Errorf("accounting identity holds but was reported:\n%s", msg)
	}
	f.Unattributed = 0
	if msg := fmt.Sprint(f.Check(0.01)); !strings.Contains(msg, "accounting broken") {
		t.Errorf("lost unattributed energy not reported:\n%s", msg)
	}
}

// FuzzReadForest: arbitrary input yields an error or a forest, never a
// panic; every closed span ends no earlier than it starts; every span
// is reached from exactly one root; and the
// offline passes (Attribute, Check, CriticalPath, Chrome export) run to
// completion on whatever forest comes back.
func FuzzReadForest(f *testing.F) {
	rec, err := os.ReadFile(filepath.Join("testdata", "loopback.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rec)
	lines := bytes.SplitAfter(rec, []byte("\n"))
	torn := bytes.Join(lines[:4], nil)
	torn = append(torn, lines[4][:len(lines[4])/2]...)
	f.Add(torn)
	f.Add([]byte(`{"seq":1,"t":"2026-08-06T10:00:00Z","type":"span_end","trace":"t1","span":9,"parent":0,"name":"get","dur_ms":3,"bytes":10,"joules":1}` + "\n"))
	f.Add([]byte(`{"t":"2026-08-06T10:00:00Z","type":"span_begin","span":1,"parent":1}` + "\n" +
		`{"t":"2026-08-06T10:00:00Z","type":"span_end","span":1,"dur_ms":-1}` + "\n"))
	f.Add([]byte(`{"t":"2026-08-06T10:00:00Z","type":"span_begin","span":1,"parent":1,"name":"transfer"}` + "\n" +
		`{"t":"2026-08-06T10:00:01Z","type":"span_end","span":1,"dur_ms":1000}` + "\n"))
	f.Add([]byte(`{"t":"2026-08-06T10:00:00Z","type":"span_begin","span":1,"parent":2,"name":"a"}` + "\n" +
		`{"t":"2026-08-06T10:00:00Z","type":"span_begin","span":2,"parent":1,"name":"b"}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		forest, err := ReadForest(bytes.NewReader(data))
		if err != nil {
			return
		}
		for id, rec := range forest.ByID {
			if !rec.Open && rec.End.Before(rec.Start) {
				t.Fatalf("span %d ends at %v, before its start %v", id, rec.End, rec.Start)
			}
		}
		reached := 0
		var walk func(*Record)
		walk = func(r *Record) {
			reached++
			for _, c := range r.Children {
				walk(c)
			}
		}
		for _, root := range forest.Roots {
			walk(root)
		}
		if reached != forest.SpanCount() {
			t.Fatalf("%d of %d spans reached from the roots", reached, forest.SpanCount())
		}
		Attribute(forest)
		_ = forest.Check(0.01)
		for _, root := range forest.Roots {
			CriticalPath(root)
		}
		_ = WriteChromeTrace(io.Discard, forest)
	})
}

func TestAttributeLeafSplit(t *testing.T) {
	// Root [0,10s] with two children both [0,10s]: the whole curve splits
	// between the two leaves, the covering parent books nothing.
	b := newStream()
	b.span(1, 0, NameTransfer, 0, 10*time.Second)
	b.span(2, 1, "a", 0, 10*time.Second)
	b.span(3, 1, "b", 0, 10*time.Second)
	b.energy(0, 0)
	b.energy(10*time.Second, 100)

	f := b.forest(t)
	Attribute(f)
	if got := f.ByID[2].SelfJoules; math.Abs(got-50) > 1e-9 {
		t.Errorf("leaf a self-joules = %v, want 50", got)
	}
	if got := f.ByID[3].SelfJoules; math.Abs(got-50) > 1e-9 {
		t.Errorf("leaf b self-joules = %v, want 50", got)
	}
	if got := f.ByID[1].SelfJoules; got != 0 {
		t.Errorf("covered parent self-joules = %v, want 0", got)
	}
	if sum := f.SumSelfJoules(); math.Abs(sum-f.FinalJoules()) > 1e-9 {
		t.Errorf("sum %v != final %v", sum, f.FinalJoules())
	}
	if f.Unattributed != 0 {
		t.Errorf("Unattributed = %v on full coverage", f.Unattributed)
	}
}

func TestAttributeGapsAndPartialCoverage(t *testing.T) {
	// Two disjoint spans with a hole between them: linear 10 W curve over
	// [0,6s] puts 20 J on each span and 20 J in the hole.
	b := newStream()
	b.span(1, 0, "first", 0, 2*time.Second)
	b.span(2, 0, "second", 4*time.Second, 2*time.Second)
	b.energy(0, 0)
	b.energy(6*time.Second, 60)

	f := b.forest(t)
	Attribute(f)
	for id, want := range map[uint64]float64{1: 20, 2: 20} {
		if got := f.ByID[id].SelfJoules; math.Abs(got-want) > 1e-9 {
			t.Errorf("span %d self-joules = %v, want %v", id, got, want)
		}
	}
	if math.Abs(f.Unattributed-20) > 1e-9 {
		t.Errorf("Unattributed = %v, want 20 (the hole)", f.Unattributed)
	}
	// Accounting identity.
	if got := f.SumSelfJoules() + f.Unattributed; math.Abs(got-f.FinalJoules()) > 1e-9 {
		t.Errorf("attributed+unattributed %v != final %v", got, f.FinalJoules())
	}
}

func TestAttributeAnchorsEarlySpans(t *testing.T) {
	// The span starts before the first recorded sample: the curve gets a
	// zero-energy anchor at the span start, so the prime-to-first-sample
	// energy still lands on the span and the sum matches the final total.
	b := newStream()
	b.span(1, 0, NameTransfer, 0, 10*time.Second)
	b.energy(5*time.Second, 50)
	b.energy(10*time.Second, 100)

	f := b.forest(t)
	Attribute(f)
	if got := f.ByID[1].SelfJoules; math.Abs(got-100) > 1e-9 {
		t.Errorf("self-joules = %v, want the full 100", got)
	}
	if got := f.FinalJoules(); got != 100 {
		t.Errorf("FinalJoules = %v", got)
	}
	if got := f.TotalJoules(); got != 50 {
		t.Errorf("TotalJoules (curve delta) = %v, want 50", got)
	}
}

func TestAttributeSkipsLeakedAndEmpty(t *testing.T) {
	b := newStream()
	b.span(1, 0, "leaky", 0, -1)
	b.energy(0, 0)
	b.energy(time.Second, 10)
	f := b.forest(t)
	Attribute(f)
	if f.ByID[1].SelfJoules != 0 {
		t.Error("leaked span got energy attributed")
	}
	Attribute(nil)                                 // must not panic
	Attribute(&Forest{ByID: map[uint64]*Record{}}) // no samples, no edges
}

func TestInterpEnergy(t *testing.T) {
	curve := []EnergyPoint{
		{T: time.Unix(0, 0), J: 0},
		{T: time.Unix(10, 0), J: 100},
	}
	cases := []struct {
		at   int64
		want float64
	}{
		{-5, 0},   // clamped before
		{0, 0},    // first point
		{5, 50},   // midpoint
		{10, 100}, // last point
		{15, 100}, // clamped after
	}
	for _, c := range cases {
		if got := interpEnergy(curve, time.Unix(c.at, 0)); got != c.want {
			t.Errorf("interpEnergy(%ds) = %v, want %v", c.at, got, c.want)
		}
	}
	if got := interpEnergy(nil, time.Unix(0, 0)); got != 0 {
		t.Errorf("empty curve = %v", got)
	}
}

func TestCriticalPath(t *testing.T) {
	// root -> b (ends at 9s) -> b2 (ends at 8s); child a ends earlier and
	// the open child is ignored.
	b := newStream()
	b.span(1, 0, NameTransfer, 0, 10*time.Second)
	b.span(2, 1, "a", 0, 3*time.Second)
	b.span(3, 1, "b", time.Second, 8*time.Second)
	b.span(4, 3, "b2", 2*time.Second, 6*time.Second)
	b.span(5, 1, "open", 0, -1)

	f := b.forest(t)
	path := CriticalPath(f.ByID[1])
	var names []string
	for _, rec := range path {
		names = append(names, rec.Name)
	}
	if got := strings.Join(names, ">"); got != "transfer>b>b2" {
		t.Errorf("critical path = %s", got)
	}
	if CriticalPath(nil) != nil {
		t.Error("nil root gave a path")
	}
}

func TestChromeTraceExport(t *testing.T) {
	b := newStream()
	b.span(1, 0, NameTransfer, 0, 10*time.Second)
	b.span(2, 1, NameGet, time.Second, 2*time.Second)
	b.span(3, 1, "open", 0, -1)
	b.energy(0, 0)
	b.energy(10*time.Second, 100)
	f := b.forest(t)
	Attribute(f)

	var out bytes.Buffer
	if err := WriteChromeTrace(&out, f); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export not JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) != 3 {
		t.Fatalf("export: unit %q, %d events", doc.DisplayTimeUnit, len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.TS < 0 {
			t.Errorf("bad event %+v", ev)
		}
		if ev.Name == NameGet && ev.Dur != 2e6 {
			t.Errorf("get dur = %vus, want 2s", ev.Dur)
		}
		if ev.Name == "open" {
			if ev.Dur != 0 || ev.Args["leaked"] != true {
				t.Errorf("leaked span export %+v", ev)
			}
		}
	}

	// Empty forest: still a valid document.
	out.Reset()
	if err := WriteChromeTrace(&out, &Forest{ByID: map[uint64]*Record{}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"traceEvents":[]`) {
		t.Errorf("empty export = %s", out.String())
	}
}
