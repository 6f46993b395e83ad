// Package span is the tracing layer over the obs registry and event
// log: a stdlib-only, allocation-conscious span tracer whose spans
// carry {trace_id, span_id, parent_id, name, start, end, attrs} and
// ride the existing JSONL event stream as span_begin/span_end events,
// while the registry counts only how many started and finished (the
// stream carries each span's name and duration). It inherits every obs
// design rule (DESIGN.md §8, §13):
//
//   - Stdlib plus obs only; lint.sh audits the closure.
//   - Write-only: nothing on the computation path reads a span back.
//   - Nil-safe: every method on a nil *Tracer or nil *Span is a no-op,
//     so instrumentation points never guard.
//   - Clock-disciplined: all time reads flow through the injected
//     obs.Clock; the wall-clock default is an annotated seam.
//
// Energy attribution runs in two layers. Online, the tracer keeps the
// latest cumulative-energy sample (EnergySample) and the power implied
// by the last two samples; a span ending between samples extrapolates
// E(t) ≈ E_last + W_last·(t−t_last), so its span_end carries a joules
// estimate that is cheap and monotone but inclusive (a parent's joules
// overlap its children's). Offline, Attribute (forest.go) replays the
// recorded energy_model_sample curve over the finished forest and
// splits every interval's exact energy among the spans that were live
// leaves during it — exclusive self-joules that sum to the source
// total, which is what cmd/xfertrace reports and the acceptance
// criterion checks.
package span

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/didclab/eta/internal/obs"
)

// Span names used by the instrumented transfer path — the taxonomy
// DESIGN.md §13 documents. The tracer accepts any name; these constants
// keep call sites and the xfertrace analyzer in one vocabulary.
const (
	NameTransfer      = "transfer"       // one per Executor.Run/Resume
	NameChunk         = "chunk"          // one per plan chunk
	NameChannel       = "channel"        // one per dialed channel lifetime
	NameChannelDial   = "channel_dial"   // dial + handshake + DATA + OPEN
	NameChannelStream = "channel_stream" // one per data-stream read loop
	NameChannelRedial = "channel_redial" // backoff + re-dial after a failure
	NameGet           = "get"            // issue → settle of one ranged GET
	NameRetry         = "retry"          // one retry-budget consumption (point span)
	NameJournalFlush  = "journal_flush"  // one group-commit flush+fsync batch
	NameServerSession = "server_session" // server-side control session lifetime
	NameServerGet     = "server_get"     // server-side serve of one GET
	NameServerStream  = "server_stream"  // server-side per-stream writer loop
	NameChaosFault    = "chaos_fault"    // one injected fault (duration for stalls/outages)
)

// ID generators. Package-level atomics make span and trace IDs globally
// unique within a process without any RNG or wall-clock input — two
// tracers sharing one events log (client and server in a loopback run)
// cannot collide, and runs under an injected clock stay deterministic.
var (
	traceSeq atomic.Uint64
	spanSeq  atomic.Uint64
)

// Tracer mints spans, emits their begin/end events into an obs.Log and
// books their counts into an obs.Registry. All methods are safe for
// concurrent use and no-ops on a nil receiver.
type Tracer struct {
	mu   sync.Mutex
	now  obs.Clock
	log  *obs.Log
	live map[uint64]*Span

	// Online energy state: the last cumulative sample and the power the
	// last interval implied. energyAt extrapolates between samples.
	lastT  time.Time
	lastJ  float64
	watts  float64
	primed bool

	// Cached instruments (nil and no-op without a registry).
	started  *obs.Counter
	finished *obs.Counter
}

// NewTracer builds a tracer over the given registry and event log;
// either may be nil (the corresponding output is skipped).
func NewTracer(reg *obs.Registry, log *obs.Log) *Tracer {
	return &Tracer{
		now:      time.Now, //lint:allow nodeterm wall-clock default seam; SetClock injects a deterministic clock
		log:      log,
		live:     make(map[uint64]*Span),
		started:  reg.Counter("spans_started"),
		finished: reg.Counter("spans_finished"),
	}
}

// SetClock overrides the tracer's time source (tests, deterministic
// runs). Set it before the first span.
func (t *Tracer) SetClock(c obs.Clock) {
	if t == nil || c == nil {
		return
	}
	t.mu.Lock()
	t.now = c
	t.mu.Unlock()
}

// EnergySample feeds one cumulative-energy reading (joules since the
// source was created) into the online estimator. Sources push a sample
// whenever they integrate an interval (monitor.ModelSource) and the
// executor pushes one per measurement window, so span estimates track
// whatever cadence the run actually samples at.
func (t *Tracer) EnergySample(joulesTotal float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	now := t.now()
	if t.primed {
		if dt := now.Sub(t.lastT).Seconds(); dt > 0 && joulesTotal >= t.lastJ {
			t.watts = (joulesTotal - t.lastJ) / dt
		}
	}
	t.lastT = now
	t.lastJ = joulesTotal
	t.primed = true
	t.mu.Unlock()
}

// energyAtLocked extrapolates the cumulative-energy estimate at ts from
// the last sample and the last observed power. Caller holds t.mu.
func (t *Tracer) energyAtLocked(ts time.Time) float64 {
	if !t.primed {
		return 0
	}
	return t.lastJ + t.watts*ts.Sub(t.lastT).Seconds()
}

// Root starts a root span: a new trace with no parent. attrs are
// alternating key, value pairs appended to the span_begin event.
func (t *Tracer) Root(name string, attrs ...any) *Span {
	return t.start(nil, name, attrs)
}

// StartChild starts a span under parent; a nil parent starts a root.
func (t *Tracer) StartChild(parent *Span, name string, attrs ...any) *Span {
	return t.start(parent, name, attrs)
}

func (t *Tracer) start(parent *Span, name string, attrs []any) *Span {
	if t == nil {
		return nil
	}
	s := &Span{tr: t, name: name, id: spanSeq.Add(1)}
	if parent != nil {
		s.trace = parent.trace
		s.parent = parent.id
	} else {
		s.trace = fmt.Sprintf("t%d", traceSeq.Add(1))
	}
	t.mu.Lock()
	s.start = t.now()
	s.startJ = t.energyAtLocked(s.start)
	t.live[s.id] = s
	t.mu.Unlock()
	t.started.Inc()
	kv := make([]any, 0, 8+len(attrs))
	kv = append(kv, "trace", s.trace, "span", s.id, "parent", s.parent, "name", s.name)
	kv = append(kv, attrs...)
	t.log.Emit(obs.EvSpanBegin, kv...)
	return s
}

// end finishes a span: removes it from the live set, emits span_end and
// counts it finished. Idempotent via Span.ended.
func (t *Tracer) end(s *Span, attrs []any) {
	t.mu.Lock()
	end := t.now()
	joules := t.energyAtLocked(end) - s.startJ
	if joules < 0 {
		joules = 0
	}
	delete(t.live, s.id)
	t.mu.Unlock()
	durMS := float64(end.Sub(s.start)) / float64(time.Millisecond)
	t.finished.Inc()
	kv := make([]any, 0, 14+len(attrs))
	kv = append(kv,
		"trace", s.trace, "span", s.id, "parent", s.parent, "name", s.name,
		"dur_ms", durMS, "bytes", s.bytes.Load(), "joules", joules)
	kv = append(kv, attrs...)
	t.log.Emit(obs.EvSpanEnd, kv...)
}

// LiveCount returns how many spans are currently open.
func (t *Tracer) LiveCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.live)
}

// liveSpan is the JSON shape of one live span on the /spans endpoint.
type liveSpan struct {
	Trace  string  `json:"trace"`
	Span   uint64  `json:"span"`
	Parent uint64  `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Start  string  `json:"start"`
	AgeMS  float64 `json:"age_ms"`
	Bytes  int64   `json:"bytes"`
	Joules float64 `json:"joules_est"`
}

// WriteLiveSpans writes the currently open spans as a JSON array —
// the payload of the obs handler's /spans endpoint (it satisfies
// obs.SpanSource without obs importing this package).
func (t *Tracer) WriteLiveSpans(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	t.mu.Lock()
	now := t.now()
	nowJ := t.energyAtLocked(now)
	out := make([]liveSpan, 0, len(t.live))
	for _, s := range t.live {
		out = append(out, liveSpan{
			Trace:  s.trace,
			Span:   s.id,
			Parent: s.parent,
			Name:   s.name,
			Start:  s.start.UTC().Format(time.RFC3339Nano),
			AgeMS:  float64(now.Sub(s.start)) / float64(time.Millisecond),
			Bytes:  s.bytes.Load(),
			Joules: maxF(0, nowJ-s.startJ),
		})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Span < out[j].Span })
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Span is one live (or finished) traced operation. All methods are
// no-ops on a nil receiver; End is idempotent.
type Span struct {
	tr     *Tracer
	trace  string
	id     uint64
	parent uint64
	name   string
	start  time.Time
	startJ float64
	bytes  atomic.Int64
	ended  atomic.Bool
}

// Child starts a sub-span of s. On a nil span it returns nil (the whole
// subtree of an untraced operation stays untraced).
func (s *Span) Child(name string, attrs ...any) *Span {
	if s == nil {
		return nil
	}
	return s.tr.start(s, name, attrs)
}

// AddBytes books payload bytes onto the span; the total rides the
// span_end event.
func (s *Span) AddBytes(n int64) {
	if s == nil || n <= 0 {
		return
	}
	s.bytes.Add(n)
}

// End finishes the span, emitting span_end with its duration, byte
// count and online joules estimate plus any extra attrs. Safe to call
// more than once; only the first call emits.
func (s *Span) End(attrs ...any) {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	s.tr.end(s, attrs)
}

// ID returns the span's process-unique ID (0 on nil).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Trace returns the span's trace ID ("" on nil).
func (s *Span) Trace() string {
	if s == nil {
		return ""
	}
	return s.trace
}
