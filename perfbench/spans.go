package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/proto"
	"github.com/didclab/eta/internal/transfer"
	"github.com/didclab/eta/internal/units"
)

// Benchmark-owned span names: one per public seam the traced run wraps.
const (
	spPass       = "bench.pass"
	spProMC      = "core.ProMC"
	spHTEE       = "core.HTEE"
	spSLAEE      = "core.SLAEE"
	spRun        = "transfer.Run"
	spStart      = "transfer.Start"
	spAdvance    = "transfer.Advance"
	spFinish     = "transfer.Finish"
	spReadAt     = "proto.Store.ReadAt"
	spVersion    = "proto.Store.Version"
	spWriteAt    = "proto.Sink.WriteAt"
	spClose      = "proto.Sink.Close"
	spPrealloc   = "proto.Sink.Preallocate"
	spEnergy     = "proto.EnergySource.Total"
	spJournal    = "proto.Journal.Close"
	spPlanResume = "proto.PlanResume"
	spSweep      = "experiments.RunSweep"
	spSLA        = "experiments.RunSLA"
)

// spanRec is one finished span. Times are offsets from the recorder's
// origin.
type spanRec struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Attr   string        `json:"attr,omitempty"`
	Pass   int           `json:"pass"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s spanRec) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. Wrappers installed
// for the whole run record only while on is set, so a traced run can
// alternate recorded and unrecorded passes over the same program
// objects. A nil recorder records nothing.
type recorder struct {
	origin time.Time
	on     atomic.Bool
	next   atomic.Uint64
	parent atomic.Uint64 // span that server- and sink-side calls hang under
	pass   atomic.Int64

	mu    sync.Mutex
	spans []spanRec
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	r      *recorder
	id     uint64
	parent uint64
	name   string
	attr   string
	start  time.Duration
}

// begin starts a span under parent (0: under the recorder's current
// parent).
func (r *recorder) begin(name string, parent uint64) openSpan {
	if r == nil || !r.on.Load() {
		return openSpan{}
	}
	if parent == 0 {
		parent = r.parent.Load()
	}
	return openSpan{r: r, id: r.next.Add(1), parent: parent, name: name, start: time.Since(r.origin)}
}

// root starts a span with no parent and makes it the parent of
// server- and sink-side calls until a Run span takes over.
func (r *recorder) root(name string) openSpan {
	o := r.begin(name, 0)
	if o.r != nil {
		o.parent = 0
		r.parent.Store(o.id)
	}
	return o
}

func (o openSpan) end() {
	if o.r == nil {
		return
	}
	end := time.Since(o.r.origin)
	rec := spanRec{ID: o.id, Parent: o.parent, Name: o.name, Attr: o.attr,
		Pass: int(o.r.pass.Load()), Start: o.start, End: end}
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, rec)
	o.r.mu.Unlock()
}

// withAttr labels the span (a testbed name, for example).
func (o openSpan) withAttr(a string) openSpan { o.attr = a; return o }

// writeFile writes every recorded span as JSON lines.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []spanRec {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]spanRec(nil), r.spans...)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval covered by its children.
func selfTimes(spans []spanRec) map[uint64]time.Duration {
	kids := make(map[uint64][]spanRec)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		covered := time.Duration(0)
		cur, curEnd := time.Duration(-1), time.Duration(-1)
		for _, k := range ks {
			st, en := max(k.Start, s.Start), min(k.End, s.End)
			if en <= st {
				continue
			}
			if st > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = st, en
			} else if en > curEnd {
				curEnd = en
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// Wrappers. Each forwards exactly the optional interfaces its inner
// value implements — the program type-asserts Versioner (server) and
// Preallocator (client), and a wrapper that hid or invented one would
// silently switch the CRC sidecar or preallocation.

type tracedStore struct {
	inner proto.Store
	rec   *recorder
}

func (s *tracedStore) List() ([]dataset.File, error) { return s.inner.List() }

func (s *tracedStore) ReadAt(name string, p []byte, off int64) (int, error) {
	sp := s.rec.begin(spReadAt, 0)
	defer sp.end()
	return s.inner.ReadAt(name, p, off)
}

type tracedVersionedStore struct {
	*tracedStore
	v proto.Versioner
}

func (s tracedVersionedStore) Version(name string) (int64, int64, bool) {
	sp := s.rec.begin(spVersion, 0)
	defer sp.end()
	return s.v.Version(name)
}

func wrapStore(inner proto.Store, rec *recorder) proto.Store {
	s := &tracedStore{inner: inner, rec: rec}
	if v, ok := inner.(proto.Versioner); ok {
		return tracedVersionedStore{s, v}
	}
	return s
}

type tracedSink struct {
	inner proto.Sink
	rec   *recorder
}

func (s *tracedSink) WriteAt(name string, p []byte, off int64) (int, error) {
	sp := s.rec.begin(spWriteAt, 0)
	defer sp.end()
	return s.inner.WriteAt(name, p, off)
}

func (s *tracedSink) Close(name string) error {
	sp := s.rec.begin(spClose, 0)
	defer sp.end()
	return s.inner.Close(name)
}

type tracedPreallocSink struct {
	*tracedSink
	pa proto.Preallocator
}

func (s tracedPreallocSink) Preallocate(name string, size int64) error {
	sp := s.rec.begin(spPrealloc, 0)
	defer sp.end()
	return s.pa.Preallocate(name, size)
}

func wrapSink(inner proto.Sink, rec *recorder) proto.Sink {
	s := &tracedSink{inner: inner, rec: rec}
	if pa, ok := inner.(proto.Preallocator); ok {
		return tracedPreallocSink{s, pa}
	}
	return s
}

type tracedEnergy struct {
	inner proto.EnergySource
	rec   *recorder
}

func (e tracedEnergy) Total() (units.Joules, error) {
	sp := e.rec.begin(spEnergy, 0)
	defer sp.end()
	return e.inner.Total()
}

// tracedExecutor spans Run and Start on a transfer.Executor and wraps
// the sessions Start returns. Spans under Run become the parent of
// server- and sink-side calls while it runs.
type tracedExecutor struct {
	inner  transfer.Executor
	rec    *recorder
	parent uint64
}

func (e *tracedExecutor) Env() transfer.Environment { return e.inner.Env() }

func (e *tracedExecutor) Run(ctx context.Context, plan transfer.Plan) (transfer.Report, error) {
	sp := e.rec.begin(spRun, e.parent)
	if sp.r != nil {
		prev := e.rec.parent.Swap(sp.id)
		defer e.rec.parent.Store(prev)
	}
	defer sp.end()
	return e.inner.Run(ctx, plan)
}

func (e *tracedExecutor) Start(ctx context.Context, plan transfer.Plan) (transfer.Session, error) {
	sp := e.rec.begin(spStart, e.parent)
	s, err := e.inner.Start(ctx, plan)
	sp.end()
	if err != nil {
		return nil, err
	}
	return &tracedSession{Session: s, rec: e.rec, parent: e.parent}, nil
}

// tracedSession spans Advance and Finish; the steering calls pass
// through the embedded Session unchanged.
type tracedSession struct {
	transfer.Session
	rec    *recorder
	parent uint64
}

func (s *tracedSession) Advance(d time.Duration) (transfer.Sample, error) {
	sp := s.rec.begin(spAdvance, s.parent)
	defer sp.end()
	return s.Session.Advance(d)
}

func (s *tracedSession) Finish() (transfer.Report, error) {
	sp := s.rec.begin(spFinish, s.parent)
	defer sp.end()
	return s.Session.Finish()
}
