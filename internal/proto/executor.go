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
	// Client connects to the server; its Counters field is managed by
	// the executor.
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
	// Sink.Close, marker lift, files counter — only when its LAST range
	// settles.
	Resume *RecoveryPlan
	// MaxRetries is how many times a file transfer is re-attempted
	// after a transport failure (the channel is re-dialed each time),
	// and how many times a failed re-dial itself is re-attempted.
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

// redialBackoffCap bounds the exponential backoff between re-dial
// attempts so a transient outage is probed frequently but a dead server
// is not hammered.
const redialBackoffCap = 200 * time.Millisecond

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
	if e.Client.Counters == nil {
		e.Client.Counters = &Counters{}
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
		// The client's Counters outlive any one session (they back the
		// /metrics byte totals), so Report accounting subtracts this
		// baseline instead of reading the shared counter raw — a second
		// Run on the same Executor must not report the first run's bytes.
		baseBytes: e.Client.Counters.Bytes(),
	}
	// Prime the energy source so the first window is measured, and seed
	// the tracer's online energy estimator with the primed total so the
	// root span's baseline is the transfer's start, not zero.
	primed, err := energy.Total()
	if err != nil {
		return nil, fmt.Errorf("proto: energy source unusable: %w", err)
	}
	e.Trace.EnergySample(float64(primed))
	s.root = e.Trace.Root(span.NameTransfer,
		"label", e.Label,
		"chunks", len(plan.Chunks),
		"channels", plan.TotalChannels(),
		"resume", e.Resume != nil)
	e.Client.setTraceParent(s.root)
	if e.Client.Journal != nil {
		e.Client.Journal.setTraceParent(e.Trace, s.root)
	}
	for i := range plan.Chunks {
		cp := plan.Chunks[i]
		rc := &realChunk{plan: cp, idx: i}
		rc.span = s.root.Child(span.NameChunk, "chunk", i, "files", len(cp.Chunk.Files))
		for _, f := range cp.Chunk.Files {
			frs := []FileRange{{File: f}}
			if e.Resume != nil {
				frs = e.Resume.ByFile[f.Name] // none: complete at the destination
			}
			n := 0
			for _, r := range frs {
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
	// A fully-resumed plan has nothing left to move.
	s.signalDoneIfComplete()
	// A Sequential plan's first chunk may already be complete at the
	// destination (resume); Placement skips it rather than parking every
	// worker on an empty queue.
	targets := make([]int, len(s.chunks))
	transfer.Placement(targets, plan, s.queued)
	if err := s.reconcile(targets); err != nil {
		s.stopAll()
		s.endSpans(err)
		return nil, err
	}
	s.inst.transfersStarted.Inc()
	s.events.Emit(obs.EvTransferStarted,
		"label", e.Label,
		"chunks", len(s.chunks),
		"bytes", int64(s.total),
		"channels", plan.TotalChannels(),
		"sequential", plan.Sequential)
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
		retriesByCause:    r.Family("retries_by_cause", "cause"),
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

// realWorker is one live channel bound to a chunk.
type realWorker struct {
	chunk *realChunk
	stop  chan struct{} // closed to ask the worker to drain and exit

	// redials counts failed re-dial attempts, each consuming one unit
	// of the executor's retry budget.
	redials int
}

type realSession struct {
	exec   *Executor
	ctx    context.Context
	plan   transfer.Plan
	energy EnergySource
	start  time.Time

	mu        sync.Mutex
	chunks    []*realChunk
	workers   map[*realWorker]struct{}
	wg        sync.WaitGroup
	total     units.Bytes
	completed units.Bytes
	firstErr  error
	finished  bool
	// fileRefs counts each file's outstanding planned ranges; the range
	// that decrements it to zero finalizes the file (Sink.Close).
	fileRefs map[string]int

	doneCh   chan struct{}
	doneOnce sync.Once
	// doneAt is stamped inside doneOnce just before doneCh closes, so a
	// caller that keeps sampling before invoking Finish still reports the
	// duration of the transfer, not of its own patience. Readers
	// synchronize through <-doneCh.
	doneAt time.Time
	// baseBytes is Client.Counters.Bytes() at Start; see Start.
	baseBytes units.Bytes

	inst    execInstruments
	events  *obs.Log
	retries atomic.Int64
	files   atomic.Int64

	// root is the transfer's root span (nil when untraced); spansOnce
	// makes endSpans idempotent across the Start-failure and Finish
	// paths.
	root      *span.Span
	spansOnce sync.Once

	lastBytes  units.Bytes
	lastEnergy units.Joules
	elapsed    time.Duration
	samples    []transfer.Sample
}

// retryConsumed books one unit of retry budget: a failed GET, a window
// requeue after a transport error, or a failed re-dial attempt. Each
// consumption is also a point span (begin and end at the same instant)
// so the flight recorder can place every retry on the timeline by
// cause.
func (s *realSession) retryConsumed(cause, file string, attempt int, err error) {
	s.retries.Add(1)
	s.inst.retriesTotal.Inc()
	s.inst.retriesByCause.With(cause).Inc()
	s.root.Child(span.NameRetry, "cause", cause, "file", file, "attempt", attempt).
		End("error", fmt.Sprint(err))
	s.events.Emit(obs.EvRetryConsumed,
		"cause", cause,
		"file", file,
		"attempt", attempt,
		"budget", s.exec.MaxRetries,
		"error", fmt.Sprint(err))
}

// endSpans finishes the session's chunk spans and root span exactly
// once, stamping the final joules estimate (Report.EnergyJoules reads
// the root's estimate just before this).
func (s *realSession) endSpans(cause error) {
	s.spansOnce.Do(func() {
		// Detach the client and journal first: channels dialed or flushes
		// committed after this session must not parent under a root that
		// is about to end.
		s.exec.Client.setTraceParent(nil)
		if s.exec.Client.Journal != nil {
			s.exec.Client.Journal.setTraceParent(s.exec.Trace, nil)
		}
		for _, rc := range s.chunks {
			rc.span.End()
		}
		if cause != nil {
			s.root.End("error", cause.Error())
		} else {
			s.root.End()
		}
	})
}

// reconcile adjusts live workers per chunk to the target allocation.
func (s *realSession) reconcile(targets []int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.workers == nil {
		s.workers = make(map[*realWorker]struct{})
	}
	current := make(map[*realChunk][]*realWorker)
	for w := range s.workers {
		current[w.chunk] = append(current[w.chunk], w)
	}
	for i, rc := range s.chunks {
		want := targets[i]
		have := current[rc]
		for len(have) > want {
			w := have[len(have)-1]
			have = have[:len(have)-1]
			close(w.stop)
			delete(s.workers, w)
		}
		for len(have) < want {
			w := &realWorker{chunk: rc, stop: make(chan struct{})}
			ch, err := s.exec.Client.OpenChannel(rc.plan.Parallelism())
			if err != nil {
				return fmt.Errorf("proto: opening channel: %w", err)
			}
			s.events.Emit(obs.EvChannelPlaced,
				"chunk", rc.idx,
				"endpoint", ch.Endpoint(),
				"addr", ch.EndpointAddr())
			s.workers[w] = struct{}{}
			have = append(have, w)
			s.wg.Add(1)
			go s.runWorker(w, ch)
		}
	}
	return nil
}

// runWorker pumps files from the worker's chunk through its channel,
// keeping the chunk's pipelining depth of GETs outstanding. Transport
// failures requeue the outstanding ranges and re-dial the channel, up
// to the executor's retry budget per range.
func (s *realSession) runWorker(w *realWorker, ch *Channel) {
	type inflight struct {
		p *pendingGet
		q queuedRange
	}
	var window []inflight

	// The channel closes (ending its span) before wg.Done, so Finish
	// never returns ahead of a worker's teardown.
	defer s.wg.Done()
	defer func() {
		if ch != nil {
			ch.Close()
		}
	}()

	// requeueWindow sends every outstanding range back for another
	// attempt (or fails the session when one is out of retries).
	requeueWindow := func(cause error) bool {
		ok := true
		for _, f := range window {
			f.q.attempts++
			s.retryConsumed(causeOf(cause), f.q.r.File.Name, f.q.attempts, cause)
			if f.q.attempts > s.exec.MaxRetries {
				ok = false
				continue
			}
			w.chunk.requeue(f.q)
		}
		window = window[:0]
		return ok
	}
	// redial replaces a broken channel. A transient OpenChannel failure
	// does not fail the session while retry budget remains: each failed
	// attempt consumes one unit of the budget and the next attempt waits
	// a capped exponential backoff, so the worker rides out short
	// listener outages.
	redial := func(cause error) bool {
		// A channel-fatal error (stall, transport, broken control stream)
		// counts against the endpoint the channel was placed on, so a
		// dying replica drops out of rotation and the replacement channel
		// lands on a healthy one. Checksum failures never reach here —
		// they re-fetch on the same channel without blaming the endpoint.
		s.exec.Client.pool().ReportFailure(ch.Endpoint(), cause)
		ch.Close()
		ch = nil
		// The redial span covers the whole backoff loop: its duration is
		// the worker's dead time, the interval a tuner would read as
		// "bytes stalled on recovery".
		rsp := s.root.Child(span.NameChannelRedial,
			"chunk", w.chunk.idx, "cause", fmt.Sprint(cause))
		if !requeueWindow(cause) {
			s.fail(fmt.Errorf("proto: transfer failed after %d retries: %w", s.exec.MaxRetries, cause))
			rsp.End("error", "retry budget exhausted")
			return false
		}
		backoff := 5 * time.Millisecond
		for {
			next, err := s.exec.Client.OpenChannel(w.chunk.plan.Parallelism())
			if err == nil {
				ch = next
				s.inst.channelsRedialed.Inc()
				rsp.End("failed_attempts", w.redials)
				s.events.Emit(obs.EvChannelRedialed,
					"chunk", w.chunk.idx,
					"failed_attempts", w.redials,
					"endpoint", next.Endpoint(),
					"addr", next.EndpointAddr(),
					"cause", fmt.Sprint(cause))
				return true
			}
			w.redials++
			s.retryConsumed("redial", "", w.redials, err)
			if w.redials > s.exec.MaxRetries {
				s.fail(fmt.Errorf("proto: re-dialing after %v: %w", cause, err))
				rsp.End("error", err.Error())
				return false
			}
			select {
			case <-w.stop:
				// Teardown while the server is unreachable: the window
				// is already requeued for other workers; just exit.
				rsp.End("error", "worker stopped")
				return false
			case <-s.ctxDone():
				s.fail(s.ctx.Err())
				rsp.End("error", s.ctx.Err().Error())
				return false
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > redialBackoffCap {
				backoff = redialBackoffCap
			}
		}
	}
	// settle waits for the oldest request; a failure triggers the
	// retry path and reports whether the worker should continue.
	settle := func() bool {
		f := window[0]
		window = window[1:]
		if err := ch.finish(f.p); err != nil {
			if errors.Is(err, ErrChecksumMismatch) {
				// The bytes and the DONE line both arrived — the channel
				// is healthy, the content is not. Re-fetch just this file
				// against the retry budget instead of tearing the channel
				// down (the re-write covers the corrupt range).
				f.q.attempts++
				s.retryConsumed(causeOf(err), f.q.r.File.Name, f.q.attempts, err)
				if f.q.attempts > s.exec.MaxRetries {
					s.fail(fmt.Errorf("proto: %s still corrupt after %d retries: %w",
						f.q.r.File.Name, s.exec.MaxRetries, err))
					return false
				}
				w.chunk.requeue(f.q)
				return true
			}
			window = append([]inflight{f}, window...)
			return redial(err)
		}
		// Finalize the file only when its LAST planned range settled:
		// closing earlier would lift the partial marker (and bump the
		// files counters) while sibling gap ranges are still in flight.
		if s.fileSettled(f.p.name) {
			if err := s.exec.Sink.Close(f.p.name); err != nil {
				s.fail(err)
				return false
			}
			s.files.Add(1)
			s.exec.Client.Counters.files.Add(1)
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

	for {
		select {
		case <-w.stop:
			drain()
			return
		default:
		}
		if s.ctx != nil && s.ctx.Err() != nil {
			drain()
			s.fail(s.ctx.Err())
			return
		}
		pipe := w.chunk.plan.Pipelining()
		issued := false
		for len(window) < pipe {
			q, ok := w.chunk.pop()
			if !ok {
				break
			}
			p, err := ch.get(q.r, s.exec.Sink)
			if err != nil {
				q.attempts++
				s.retryConsumed("get", q.r.File.Name, q.attempts, err)
				if q.attempts > s.exec.MaxRetries {
					s.fail(fmt.Errorf("proto: issuing GET failed after %d retries: %w", s.exec.MaxRetries, err))
					return
				}
				w.chunk.requeue(q)
				if !redial(err) {
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

// sessionBytes is how many payload bytes THIS session has received: the
// shared client counter minus the session's starting baseline.
func (s *realSession) sessionBytes() units.Bytes {
	return s.exec.Client.Counters.Bytes() - s.baseBytes
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
	return s.reconcile(targets)
}

// SetAllocation implements transfer.Session.
func (s *realSession) SetAllocation(channels []int) error {
	if err := transfer.CheckAllocation(channels, len(s.chunks), s.exec.Environment.MaxChannels); err != nil {
		return err
	}
	return s.reconcile(channels)
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
	joules := s.root.Joules()
	if s.root == nil {
		joules = float64(energy)
	}
	s.endSpans(nil)
	s.mu.Lock()
	s.finished = true
	s.mu.Unlock()
	r := transfer.Report{
		Algorithm:       s.exec.Label,
		Testbed:         s.exec.Client.Target(),
		Duration:        duration,
		Bytes:           bytes,
		Throughput:      units.RateOf(bytes, duration),
		Files:           s.files.Load(),
		Retries:         s.retries.Load(),
		EndSystemEnergy: energy,
		EnergyJoules:    joules,
		AvgPower:        units.Power(energy, duration),
		Samples:         s.samples,
	}
	s.inst.transfersFinished.Inc()
	s.inst.energyJoules.Set(float64(energy))
	s.events.Emit(obs.EvTransferFinished,
		"label", s.exec.Label,
		"bytes", int64(r.Bytes),
		"files", r.Files,
		"retries", r.Retries,
		"duration_ms", duration.Milliseconds(),
		"mbps", r.Throughput.Mbit(),
		"joules", float64(energy))
	return r, nil
}

func (s *realSession) stopAll() {
	s.mu.Lock()
	for w := range s.workers {
		select {
		case <-w.stop:
		default:
			close(w.stop)
		}
	}
	s.mu.Unlock()
}

var _ transfer.Executor = (*Executor)(nil)
var _ transfer.Session = (*realSession)(nil)
