package proto

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/didclab/eta/internal/obs"
	"github.com/didclab/eta/internal/obs/span"
	"github.com/didclab/eta/internal/transfer"
	"github.com/didclab/eta/internal/units"
)

// EnergySource reports cumulative transfer energy (implemented by
// internal/monitor's RAPL and model estimators).
type EnergySource interface {
	Total() (units.Joules, error)
}

// zeroEnergy is used when no estimator is supplied.
type zeroEnergy struct{}

func (zeroEnergy) Total() (units.Joules, error) { return 0, nil }

// Executor runs transfer plans against a real server over TCP,
// implementing the same contract the simulator does — so MinE, HTEE
// and SLAEE drive real sockets unchanged.
type Executor struct {
	// Client connects to the server.
	Client *Client
	// Sink receives the payload.
	Sink Sink
	// Energy estimates end-system energy; optional.
	Energy EnergySource
	// Environment describes the path for the algorithms' parameter
	// formulas (BDP, buffer size) and budget checks.
	Environment transfer.Environment
	// Resume, when set, makes the session fetch exactly the plan's
	// per-file ranges (from PlanResume), skipping files the plan holds no
	// entry for. A file split across several gap ranges is finalized —
	// Sink.Close, length-mark lift, files counter — only when its LAST range
	// settles.
	Resume *RecoveryPlan
	// MaxRetries is how many times a range is re-attempted after a
	// checksum mismatch (on the same channel) or a channel failure (the
	// channel is re-dialed), and how many failed dials (first placement
	// or re-dial) one worker rides out. Sink errors are never retried.
	// Zero means failures are fatal.
	MaxRetries int
	// Label names the algorithm in reports.
	Label string
	// Metrics receives live counters (retries_total, channels_redialed,
	// ...); optional. Propagated to the Client when its own Metrics is
	// unset.
	Metrics *obs.Registry
	// Events receives the structured transfer event log; optional.
	// Propagated to the Client when its own Events is unset.
	Events *obs.Log
	// Trace, when set, opens one root span per Start (Run and Resume
	// both land here) with child spans per chunk, channel, GET, retry
	// and journal flush, each carrying bytes and an online joules
	// estimate. Propagated to the Client (and the client's Journal)
	// when their own tracers are unset.
	Trace *span.Tracer
}

// dialBackoffCap bounds the exponential backoff between dial
// attempts so a transient outage is probed frequently but a dead server
// is not hammered.
const dialBackoffCap = 200 * time.Millisecond

// causeOf classifies a failed request for retry accounting: watchdog
// kills book as "stall", integrity failures as "checksum", everything
// else as "transport".
func causeOf(err error) string {
	switch {
	case errors.Is(err, ErrStalled):
		return "stall"
	case errors.Is(err, ErrChecksumMismatch):
		return "checksum"
	default:
		return "transport"
	}
}

// Env implements transfer.Executor.
func (e *Executor) Env() transfer.Environment { return e.Environment }

// Run implements transfer.Executor.
func (e *Executor) Run(ctx context.Context, plan transfer.Plan) (transfer.Report, error) {
	sess, err := e.Start(ctx, plan)
	if err != nil {
		return transfer.Report{}, err
	}
	return sess.Finish()
}

// Start implements transfer.Executor.
func (e *Executor) Start(ctx context.Context, plan transfer.Plan) (transfer.Session, error) {
	if e.Client == nil || e.Sink == nil {
		return nil, errors.New("proto: executor needs a client and a sink")
	}
	if err := plan.Validate(e.Environment); err != nil {
		return nil, err
	}
	energy := e.Energy
	if energy == nil {
		energy = zeroEnergy{}
	}
	if e.Client.Metrics == nil {
		e.Client.Metrics = e.Metrics
	}
	if e.Client.Events == nil {
		e.Client.Events = e.Events
	}
	if e.Client.Trace == nil {
		e.Client.Trace = e.Trace
	}
	s := &realSession{
		exec:     e,
		ctx:      ctx,
		plan:     plan,
		energy:   energy,
		start:    time.Now(),
		doneCh:   make(chan struct{}),
		inst:     newExecInstruments(e.Metrics),
		events:   e.Events,
		fileRefs: make(map[string]int),
	}
	// Prime the energy source so the first window is measured, and seed
	// the tracer's online energy estimator with the primed total so the
	// root span's baseline is the transfer's start, not zero.
	primed, err := energy.Total()
	if err != nil {
		return nil, fmt.Errorf("proto: energy source unusable: %w", err)
	}
	s.primed, s.lastEnergy = primed, primed
	for i := range plan.Chunks {
		cp := plan.Chunks[i]
		rc := &realChunk{plan: cp, idx: i}
		for _, f := range cp.Chunk.Files {
			frs := []FileRange{{File: f}}
			if e.Resume != nil {
				frs = e.Resume.ByFile[f.Name] // none: complete at the destination
			}
			n := 0
			for _, r := range frs {
				if r.File.Size == 0 {
					// Nothing to fetch: closing the file in the sink
					// creates it empty.
					if err := e.Sink.Close(f.Name); err != nil {
						return nil, err
					}
					s.files.Add(1)
					e.Client.instruments().filesCompleted.Inc()
					continue
				}
				if r.Remaining() == 0 {
					continue
				}
				rc.queue = append(rc.queue, queuedRange{r: r})
				s.total += r.Remaining()
				n++
			}
			if n > 0 {
				s.fileRefs[f.Name] += n
			}
		}
		s.chunks = append(s.chunks, rc)
	}
	e.Trace.EnergySample(float64(primed))
	s.root = e.Trace.Root(span.NameTransfer,
		"label", e.Label,
		"chunks", len(plan.Chunks),
		"bytes", int64(s.total),
		"channels", plan.TotalChannels(),
		"sequential", plan.Sequential,
		"resume", e.Resume != nil)
	for _, rc := range s.chunks {
		rc.span = s.root.Child(span.NameChunk, "chunk", rc.idx, "files", len(rc.plan.Chunk.Files))
	}
	e.Client.traceParent.Store(s.root)
	e.Client.Journal.setTraceParent(e.Trace, s.root)
	// A fully-resumed plan has nothing left to move.
	s.signalDoneIfComplete()
	// A Sequential plan's first chunk may already be complete at the
	// destination (resume); Placement skips it rather than parking every
	// worker on an empty queue.
	targets := make([]int, len(s.chunks))
	transfer.Placement(targets, plan, s.queued)
	s.reconcile(targets)
	s.inst.transfersStarted.Inc()
	return s, nil
}

// execInstruments caches the executor-side counters so hot paths skip
// the registry's name lookup. All fields are nil (and their methods
// no-ops) when no registry is configured.
type execInstruments struct {
	transfersStarted  *obs.Counter
	transfersFinished *obs.Counter
	retriesTotal      *obs.Counter
	retriesByCause    *obs.Family
	channelsRedialed  *obs.Counter
	chunksRealloc     *obs.Counter
	energyJoules      *obs.Gauge
}

func newExecInstruments(r *obs.Registry) execInstruments {
	return execInstruments{
		transfersStarted:  r.Counter("transfers_started"),
		transfersFinished: r.Counter("transfers_finished"),
		retriesTotal:      r.Counter("retries_total"),
		retriesByCause:    r.Family("retries_by_cause", "cause", "stall", "checksum", "transport"),
		channelsRedialed:  r.Counter("channels_redialed"),
		chunksRealloc:     r.Counter("chunks_reallocated"),
		energyJoules:      r.Gauge("energy_joules_total"),
	}
}

// realChunk is a chunk's shared work queue.
type realChunk struct {
	plan transfer.ChunkPlan
	idx  int // position in the plan, for event labels
	// span covers the chunk from Start to Finish (a chunk has no
	// earlier natural drain moment: ranges can requeue into it until
	// the session settles); nil when untraced.
	span *span.Span

	mu      sync.Mutex
	queue   []queuedRange
	next    int
	retries []queuedRange
}

// queuedRange tracks how often a range has been attempted.
type queuedRange struct {
	r        FileRange
	attempts int
}

func (c *realChunk) pop() (queuedRange, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.retries); n > 0 {
		q := c.retries[n-1]
		c.retries = c.retries[:n-1]
		return q, true
	}
	if c.next >= len(c.queue) {
		return queuedRange{}, false
	}
	f := c.queue[c.next]
	c.next++
	return f, true
}

// requeue returns a failed range for another attempt.
func (c *realChunk) requeue(q queuedRange) {
	c.mu.Lock()
	c.retries = append(c.retries, q)
	c.mu.Unlock()
}

func (c *realChunk) remaining() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue) - c.next + len(c.retries)
}

func (c *realChunk) remainingBytes() units.Bytes {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total units.Bytes
	for _, q := range c.queue[c.next:] {
		total += q.r.Remaining()
	}
	for _, q := range c.retries {
		total += q.r.Remaining()
	}
	return total
}

// weight, queued and bytesLeft are the per-chunk inputs of the
// allocation rules (transfer/alloc.go). The real executor counts only
// queued ranges as live: bytes already on a channel cannot move.
func (s *realSession) weight(i int) float64 { return s.chunks[i].plan.Weight }

func (s *realSession) queued(i int) bool { return s.chunks[i].remaining() > 0 }

func (s *realSession) bytesLeft(i int) float64 { return float64(s.chunks[i].remainingBytes()) }

// realWorker is one channel slot bound to a chunk: it dials its own
// channel and re-dials it after a failure.
type realWorker struct {
	chunk *realChunk
	stop  chan struct{} // closed to ask the worker to drain and exit
}

// stopping reports whether the worker has been asked to exit.
func (w *realWorker) stopping() bool {
	select {
	case <-w.stop:
		return true
	default:
		return false
	}
}

type realSession struct {
	exec   *Executor
	ctx    context.Context
	plan   transfer.Plan
	energy EnergySource
	start  time.Time

	mu     sync.Mutex
	chunks []*realChunk
	// workers holds every running worker, from reconcile's start until
	// the worker exits (a stopped one drains its window first).
	workers   map[*realWorker]struct{}
	wg        sync.WaitGroup
	total     units.Bytes
	completed units.Bytes
	firstErr  error
	// fileRefs counts each file's outstanding planned ranges; the range
	// that decrements it to zero finalizes the file (Sink.Close).
	fileRefs map[string]int

	// doneCh closes on completion or on the first failure; every worker
	// stops on it, so a failed session the caller abandons without
	// Finish stops fetching.
	doneCh   chan struct{}
	doneOnce sync.Once
	// doneAt is stamped inside doneOnce just before doneCh closes, so a
	// caller that keeps sampling before invoking Finish still reports the
	// duration of the transfer, not of its own patience. Readers
	// synchronize through <-doneCh.
	doneAt time.Time

	inst    execInstruments
	events  *obs.Log
	retries atomic.Int64
	files   atomic.Int64
	// received counts the payload bytes this session's GETs received,
	// retried ones included.
	received atomic.Int64

	// root is the transfer's root span (nil when untraced); spansOnce
	// makes endSpans idempotent across Finish's paths.
	root      *span.Span
	spansOnce sync.Once

	// primed is the energy source's total at Start: the source is
	// cumulative across sessions, so windows and the report subtract it.
	primed     units.Joules
	lastBytes  units.Bytes
	lastEnergy units.Joules
	elapsed    time.Duration
	samples    []transfer.Sample
}

// retryConsumed books one unit of retry budget, labelled causeOf(err):
// a range charged by the worker's failure rule, or a failed dial
// attempt (file ""). Each consumption is also a point span (begin and
// end at the same instant) so the flight recorder can place every retry
// on the timeline by cause.
func (s *realSession) retryConsumed(file string, attempt int, err error) {
	cause := causeOf(err)
	s.retries.Add(1)
	s.inst.retriesTotal.Inc()
	s.inst.retriesByCause.With(cause).Inc()
	s.root.Child(span.NameRetry,
		"cause", cause, "file", file, "attempt", attempt, "budget", s.exec.MaxRetries).
		End("error", fmt.Sprint(err))
}

// endSpans finishes the session's chunk spans and root span exactly
// once, stamping the final joules estimate on the root's span_end.
// attrs ride the root's span_end when the session succeeded. Finish
// calls it, and so does the last worker out of a failed session, which
// its caller may abandon without Finish.
func (s *realSession) endSpans(cause error, attrs ...any) {
	s.spansOnce.Do(func() {
		// Detach the client and journal first: channels dialed or flushes
		// committed after this session must not parent under a root that
		// is about to end. A later session's root stays attached.
		s.exec.Client.traceParent.CompareAndSwap(s.root, nil)
		s.exec.Client.Journal.detachTraceParent(s.root)
		for _, rc := range s.chunks {
			rc.span.End()
		}
		if cause != nil {
			s.root.End("error", cause.Error())
		} else {
			s.root.End(attrs...)
		}
	})
}

// reconcile adjusts live workers per chunk to the target allocation. It
// only starts and stops workers: each new worker dials its own channel,
// so the session lock is never held across network I/O. A stopped
// worker leaves s.workers itself when it exits. Once doneCh has closed
// no worker starts, so no wg.Add races Finish's wg.Wait.
func (s *realSession) reconcile(targets []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.doneCh:
		return
	default:
	}
	if s.workers == nil {
		s.workers = make(map[*realWorker]struct{})
	}
	current := make(map[*realChunk][]*realWorker)
	for w := range s.workers {
		if !w.stopping() {
			current[w.chunk] = append(current[w.chunk], w)
		}
	}
	for i, rc := range s.chunks {
		want := targets[i]
		have := current[rc]
		for len(have) > want {
			close(have[len(have)-1].stop)
			have = have[:len(have)-1]
		}
		for len(have) < want {
			w := &realWorker{chunk: rc, stop: make(chan struct{})}
			s.workers[w] = struct{}{}
			have = append(have, w)
			s.wg.Add(1)
			go s.runWorker(w)
		}
	}
}

// runWorker dials the worker's channel, then pumps ranges from its
// chunk through it, keeping the chunk's pipelining depth of GETs
// outstanding. Every failed GET, at issue or at settle, goes through one
// rule: onFailure.
func (s *realSession) runWorker(w *realWorker) {
	type inflight struct {
		p *pendingGet
		q queuedRange
	}
	var window []inflight
	var ch *Channel

	// The channel closes (ending its span) and the worker leaves
	// s.workers before wg.Done, so Finish never returns ahead of a
	// worker's teardown. The last worker out of a failed session ends
	// its spans.
	defer s.wg.Done()
	defer func() {
		if ch != nil {
			ch.Close()
		}
		s.mu.Lock()
		delete(s.workers, w)
		last, err := len(s.workers) == 0, s.firstErr
		s.mu.Unlock()
		if last && err != nil {
			s.endSpans(err)
		}
	}()

	// dial opens the worker's channel: its first (cause nil), or the
	// replacement for one that broke with cause. Each failed attempt
	// books one retry on the worker's own count and blames the endpoint
	// it drew; the next waits a capped exponential backoff, so the
	// worker rides out short outages and dead replicas. A re-dial's span
	// covers the whole loop: the worker's dead time, the interval a
	// tuner would read as "bytes stalled on recovery".
	failedDials := 0
	dial := func(cause error) bool {
		var rsp *span.Span
		if cause != nil {
			rsp = s.root.Child(span.NameChannelRedial, "chunk", w.chunk.idx, "cause", fmt.Sprint(cause))
		}
		for backoff := 5 * time.Millisecond; ; backoff = min(2*backoff, dialBackoffCap) {
			next, err := s.exec.Client.OpenChannel(w.chunk.plan.Parallelism())
			if err == nil {
				ch = next
				if cause == nil {
					s.events.Emit(obs.EvChannelPlaced, "chunk", w.chunk.idx, "endpoint", ch.Endpoint(), "addr", ch.EndpointAddr())
				} else {
					s.inst.channelsRedialed.Inc()
					rsp.End("failed_attempts", failedDials, "endpoint", ch.Endpoint(), "addr", ch.EndpointAddr())
				}
				return true
			}
			failedDials++
			s.retryConsumed("", failedDials, err)
			if failedDials > s.exec.MaxRetries {
				rsp.End("error", err.Error())
				if cause == nil {
					s.fail(fmt.Errorf("proto: opening channel: %w", err))
				} else {
					s.fail(fmt.Errorf("proto: re-dialing after %v: %w", cause, err))
				}
				return false
			}
			select {
			case <-time.After(backoff):
				continue
			case <-s.ctxDone():
				s.fail(s.ctx.Err())
			case <-w.stop: // teardown while unreachable: the window is already requeued
			case <-s.doneCh:
			}
			rsp.End("error", "stopped")
			return false
		}
	}
	// onFailure is the worker's one failure rule for err, raised by the
	// GET of q; it reports whether the worker carries on.
	//   - A sink error (WriteAt, Preallocate) fails the session with the
	//     sink's error, as a Sink.Close error does: the destination is
	//     at fault, so no retry is spent and no endpoint blamed.
	//   - A checksum mismatch means the bytes and the DONE line both
	//     arrived: the channel is healthy, the content is not. q alone
	//     is charged and re-fetched on the same channel.
	//   - Anything else (stall, transport, broken control stream) is
	//     channel-fatal. It counts against the channel's endpoint, so a
	//     dying replica drops out of rotation and the replacement lands
	//     on a healthy one; q and the whole window are charged and
	//     requeued, and the channel is re-dialed.
	onFailure := func(err error, q queuedRange) bool {
		var se sinkError
		if errors.As(err, &se) {
			s.fail(se.err)
			return false
		}
		failed := []queuedRange{q}
		keep := errors.Is(err, ErrChecksumMismatch)
		if !keep {
			s.exec.Client.pool().ReportFailure(ch.Endpoint(), err)
			ch.Close()
			ch = nil
			for _, f := range window {
				failed = append(failed, f.q)
			}
			window = window[:0]
		}
		exhausted := false
		for _, f := range failed {
			f.attempts++
			s.retryConsumed(f.r.File.Name, f.attempts, err)
			if f.attempts > s.exec.MaxRetries {
				exhausted = true
				continue
			}
			w.chunk.requeue(f)
		}
		if exhausted {
			s.fail(fmt.Errorf("proto: transfer failed after %d retries: %w", s.exec.MaxRetries, err))
			return false
		}
		return keep || dial(err)
	}
	// settle waits for the oldest request and reports whether the
	// worker should continue.
	settle := func() bool {
		f := window[0]
		window = window[1:]
		if err := ch.finish(f.p); err != nil {
			return onFailure(err, f.q)
		}
		// Finalize the file only when its LAST planned range settled:
		// closing earlier would lift the length mark (and bump the
		// files counters) while sibling gap ranges are still in flight.
		if s.fileSettled(f.p.name) {
			if err := s.exec.Sink.Close(f.p.name); err != nil {
				s.fail(err)
				return false
			}
			s.files.Add(1)
			s.exec.Client.instruments().filesCompleted.Inc()
		}
		s.addCompleted(units.Bytes(f.p.length))
		return true
	}
	drain := func() {
		for len(window) > 0 {
			if !settle() {
				return
			}
		}
	}

	if !dial(nil) {
		return
	}
	for {
		select {
		case <-w.stop:
			drain()
			return
		case <-s.doneCh:
			drain()
			return
		case <-s.ctxDone():
			drain()
			s.fail(s.ctx.Err())
			return
		default:
		}
		pipe := w.chunk.plan.Pipelining()
		issued := false
		for len(window) < pipe {
			q, ok := w.chunk.pop()
			if !ok {
				break
			}
			p, err := ch.get(q.r, s.exec.Sink, &s.received)
			if err != nil {
				if !onFailure(err, q) {
					return
				}
				continue
			}
			window = append(window, inflight{p: p, q: q})
			issued = true
		}
		if len(window) == 0 {
			// Chunk drained: move on per the plan's policy.
			s.mu.Lock()
			from := w.chunk.idx
			next := transfer.NextChunk(s.plan, from, s.queued, s.bytesLeft)
			if next < 0 {
				s.mu.Unlock()
				return
			}
			w.chunk = s.chunks[next]
			s.mu.Unlock()
			s.inst.chunksRealloc.Inc()
			s.events.Emit(obs.EvChunkRealloc, "from_chunk", from, "to_chunk", next)
			continue
		}
		if !issued || len(window) >= pipe {
			if !settle() {
				return
			}
		}
	}
}

// fileSettled books one successfully settled range of name and reports
// whether it was the file's last outstanding one.
func (s *realSession) fileSettled(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.fileRefs[name]
	if !ok {
		return true
	}
	if n--; n <= 0 {
		delete(s.fileRefs, name)
		return true
	}
	s.fileRefs[name] = n
	return false
}

func (s *realSession) fail(err error) {
	s.mu.Lock()
	if s.firstErr == nil {
		s.firstErr = err
	}
	s.mu.Unlock()
	s.signalDoneIfComplete()
}

func (s *realSession) addCompleted(n units.Bytes) {
	s.mu.Lock()
	s.completed += n
	s.mu.Unlock()
	s.signalDoneIfComplete()
}

func (s *realSession) signalDoneIfComplete() {
	s.mu.Lock()
	done := s.completed >= s.total || s.firstErr != nil
	s.mu.Unlock()
	if done {
		s.doneOnce.Do(func() {
			s.doneAt = time.Now()
			close(s.doneCh)
		})
	}
}

// Done implements transfer.Session.
func (s *realSession) Done() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.completed >= s.total
}

// Remaining implements transfer.Session.
func (s *realSession) Remaining() units.Bytes {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.completed >= s.total {
		return 0
	}
	return s.total - s.completed
}

// Advance implements transfer.Session: it lets the live transfer run
// for (up to) d of wall-clock time and reports the window.
func (s *realSession) Advance(d time.Duration) (transfer.Sample, error) {
	if d <= 0 {
		return transfer.Sample{}, fmt.Errorf("proto: non-positive advance %v", d)
	}
	if err := s.err(); err != nil {
		return transfer.Sample{}, err
	}
	winStart := s.elapsed
	if !s.Done() {
		timer := time.NewTimer(d)
		select {
		case <-timer.C:
		case <-s.doneCh:
			timer.Stop()
		}
	}
	now := time.Since(s.start)
	bytes := s.sessionBytes()
	energy, eErr := s.energy.Total()
	if eErr != nil {
		return transfer.Sample{}, eErr
	}
	s.exec.Trace.EnergySample(float64(energy))
	sample := transfer.Sample{
		Start:           winStart,
		Duration:        now - s.elapsed,
		Bytes:           bytes - s.lastBytes,
		EndSystemEnergy: energy - s.lastEnergy,
		ActiveChannels:  s.liveWorkers(),
	}
	sample.Throughput = units.RateOf(sample.Bytes, sample.Duration)
	s.elapsed = now
	s.lastBytes = bytes
	s.lastEnergy = energy
	s.samples = append(s.samples, sample)
	s.inst.energyJoules.Set(float64(energy))
	s.events.Emit(obs.EvEnergySample,
		"window_ms", sample.Duration.Milliseconds(),
		"bytes", int64(sample.Bytes),
		"joules", float64(sample.EndSystemEnergy),
		"mbps", sample.Throughput.Mbit(),
		"channels", sample.ActiveChannels)
	if err := s.err(); err != nil {
		return transfer.Sample{}, err
	}
	return sample, nil
}

// sessionBytes is how many payload bytes this session has received.
func (s *realSession) sessionBytes() units.Bytes {
	return units.Bytes(s.received.Load())
}

func (s *realSession) err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.firstErr
}

// ctxDone returns the session context's done channel (nil — blocking
// forever — when the session was started without a context).
func (s *realSession) ctxDone() <-chan struct{} {
	if s.ctx == nil {
		return nil
	}
	return s.ctx.Done()
}

func (s *realSession) liveWorkers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.workers)
}

// SetTotalChannels implements transfer.Session: transfer.SplitByWeight
// over the chunks with queued ranges.
func (s *realSession) SetTotalChannels(n int) error {
	if err := transfer.CheckTotal(n, s.exec.Environment.MaxChannels); err != nil {
		return err
	}
	targets := make([]int, len(s.chunks))
	if !transfer.SplitByWeight(targets, n, s.weight, s.queued) {
		return nil
	}
	s.reconcile(targets)
	return nil
}

// SetAllocation implements transfer.Session.
func (s *realSession) SetAllocation(channels []int) error {
	if err := transfer.CheckAllocation(channels, len(s.chunks), s.exec.Environment.MaxChannels); err != nil {
		return err
	}
	s.reconcile(channels)
	return nil
}

// Finish implements transfer.Session.
func (s *realSession) Finish() (transfer.Report, error) {
	<-s.doneCh
	s.stopAll()
	s.wg.Wait()
	if err := s.err(); err != nil {
		s.endSpans(err)
		return transfer.Report{}, err
	}
	// doneAt is safe to read here: it was written before doneCh closed
	// and we received from doneCh above.
	duration := s.doneAt.Sub(s.start)
	if duration <= 0 {
		duration = time.Since(s.start)
	}
	bytes := s.sessionBytes()
	energy, err := s.energy.Total()
	if err != nil {
		s.endSpans(err)
		return transfer.Report{}, err
	}
	// Push the final cumulative sample before ending the spans so the
	// root span's joules estimate closes against the source's actual
	// final total rather than an extrapolation.
	s.exec.Trace.EnergySample(float64(energy))
	used := energy - s.primed
	files, retries := s.files.Load(), s.retries.Load()
	s.root.AddBytes(int64(bytes))
	s.endSpans(nil, "files", files, "retries", retries)
	s.inst.transfersFinished.Inc()
	s.inst.energyJoules.Set(float64(energy))
	return transfer.Report{
		Algorithm:       s.exec.Label,
		Testbed:         s.exec.Client.Target(),
		Duration:        duration,
		Bytes:           bytes,
		Throughput:      units.RateOf(bytes, duration),
		Files:           files,
		Retries:         retries,
		EndSystemEnergy: used,
		AvgPower:        units.Power(used, duration),
		Samples:         s.samples,
	}, nil
}

func (s *realSession) stopAll() {
	s.mu.Lock()
	for w := range s.workers {
		if !w.stopping() {
			close(w.stop)
		}
	}
	s.mu.Unlock()
}

var _ transfer.Executor = (*Executor)(nil)
var _ transfer.Session = (*realSession)(nil)
