package chaos

import (
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/didclab/eta/internal/obs"
	"github.com/didclab/eta/internal/obs/span"
)

// forwardChunk is the proxy's forwarding buffer size. Fault offsets are
// byte-exact regardless of this value (the chunk containing a scripted
// offset is located and, for Corrupt, indexed into); it only bounds how
// much data can slip through between two schedule checks.
const forwardChunk = 32 * 1024

// Options configures a Proxy.
type Options struct {
	// Addr is the listen address; "127.0.0.1:0" when empty.
	Addr string
	// Schedule is the scripted fault sequence (see Step). Steps are
	// consumed per target connection in (Conn, At) order; steps left
	// behind on a connection that died early never fire.
	Schedule []Step
	// Metrics receives the chaos_faults_injected{kind} counter family;
	// optional.
	Metrics *obs.Registry
	// Trace, when set, roots one chaos_fault span per injected fault,
	// carrying its kind, connection, schedule offset, stream offset and
	// scripted duration; that span is the proxy's only event output.
	// Instant faults (reset, corrupt, partial) are point spans; stalls,
	// black-holes and outages span the interval the fault held the
	// connection (or listener) down, so the flight recorder can overlay
	// fault windows on the transfer timeline.
	Trace *span.Tracer
}

// Proxy forwards TCP to a backend and injects scripted faults into the
// server→client direction. It also exposes the manual controls the
// resilience tests script directly: Stop (listener down + all
// connections severed), Restart (listener back up) and KillAll (sever
// connections, keep accepting).
type Proxy struct {
	backend  string
	listenAt string
	faults   *obs.Family
	trace    *span.Tracer

	done     chan struct{} // closed by Close; unblocks stalls and black-holes
	doneOnce sync.Once

	mu       sync.Mutex
	ln       net.Listener
	pairs    []*pair
	accepted int
	steps    map[int][]Step
	injected map[Kind]int64
	closed   bool
	wg       sync.WaitGroup
}

// pair is one proxied connection: the accepted client side, the dialed
// backend side, and a dead signal that unblocks any fault sleeping on
// the pair.
type pair struct {
	idx    int
	client net.Conn
	server net.Conn
	dead   chan struct{}
	once   sync.Once
}

// sever closes both sides and signals anything blocked on the pair.
func (pr *pair) sever() {
	pr.once.Do(func() {
		pr.client.Close()
		pr.server.Close()
		close(pr.dead)
	})
}

// New starts a proxy for backend. Close it to stop.
func New(backend string, opts Options) (*Proxy, error) {
	if err := Validate(opts.Schedule); err != nil {
		return nil, err
	}
	addr := opts.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("chaos: listen %s: %w", addr, err)
	}
	steps := make(map[int][]Step)
	for _, s := range opts.Schedule {
		steps[s.Conn] = append(steps[s.Conn], s)
	}
	for conn := range steps {
		sortSteps(steps[conn])
	}
	kinds := make([]string, len(Kinds))
	for i, k := range Kinds {
		kinds[i] = string(k)
	}
	p := &Proxy{
		backend:  backend,
		listenAt: ln.Addr().String(),
		faults:   opts.Metrics.Family("chaos_faults_injected", "kind", kinds...),
		trace:    opts.Trace,
		done:     make(chan struct{}),
		ln:       ln,
		steps:    steps,
		injected: make(map[Kind]int64),
	}
	p.wg.Add(1)
	go p.acceptLoop(ln)
	return p, nil
}

// Addr returns the proxy's listen address. It stays stable across
// Stop/Restart cycles so clients can re-dial through an outage.
func (p *Proxy) Addr() string { return p.listenAt }

// Injected returns how many faults of each kind have fired so far.
func (p *Proxy) Injected() map[Kind]int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[Kind]int64, len(p.injected))
	for k, n := range p.injected {
		out[k] = n
	}
	return out
}

// InjectedTotal returns the total number of faults that have fired.
func (p *Proxy) InjectedTotal() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var total int64
	for _, n := range p.injected {
		total += n
	}
	return total
}

// Stop closes the listener and severs every live connection; until
// Restart, dials to the proxy fail outright — a full service outage.
func (p *Proxy) Stop() {
	p.mu.Lock()
	ln := p.ln
	p.ln = nil
	p.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	p.KillAll()
}

// Restart re-binds the proxy's original address after a Stop or a
// scripted outage. It is a no-op on a closed or already-listening
// proxy.
func (p *Proxy) Restart() error {
	p.mu.Lock()
	if p.closed || p.ln != nil {
		p.mu.Unlock()
		return nil
	}
	p.mu.Unlock()
	ln, err := net.Listen("tcp", p.listenAt)
	if err != nil {
		return fmt.Errorf("chaos: restart %s: %w", p.listenAt, err)
	}
	p.mu.Lock()
	if p.closed || p.ln != nil {
		p.mu.Unlock()
		ln.Close()
		return nil
	}
	p.ln = ln
	p.wg.Add(1)
	p.mu.Unlock()
	go p.acceptLoop(ln)
	return nil
}

// KillAll severs every live proxied connection (both directions) while
// leaving the listener up, so new dials still succeed.
func (p *Proxy) KillAll() {
	p.mu.Lock()
	pairs := append([]*pair(nil), p.pairs...)
	p.mu.Unlock()
	for _, pr := range pairs {
		pr.sever()
	}
}

// Close stops the proxy for good: listener down, connections severed,
// scheduled restores cancelled, all goroutines joined.
func (p *Proxy) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.doneOnce.Do(func() { close(p.done) })
	p.Stop()
	p.wg.Wait()
}

func (p *Proxy) acceptLoop(ln net.Listener) {
	defer p.wg.Done()
	for {
		client, err := ln.Accept()
		if err != nil {
			return
		}
		server, err := net.Dial("tcp", p.backend)
		if err != nil {
			client.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			client.Close()
			server.Close()
			return
		}
		pr := &pair{idx: p.accepted, client: client, server: server, dead: make(chan struct{})}
		p.accepted++
		p.pairs = append(p.pairs, pr)
		p.wg.Add(2)
		p.mu.Unlock()
		go p.pipeC2S(pr)
		go p.pipeS2C(pr)
	}
}

// pipeC2S forwards the client→server direction untouched; the fault
// model targets the data-bearing server→client direction.
func (p *Proxy) pipeC2S(pr *pair) {
	defer p.wg.Done()
	defer pr.sever()
	buf := make([]byte, forwardChunk)
	for {
		n, rerr := pr.client.Read(buf)
		if n > 0 {
			if _, werr := pr.server.Write(buf[:n]); werr != nil {
				return
			}
		}
		if rerr != nil {
			return
		}
	}
}

// pipeS2C forwards the server→client direction, consuming the
// connection's scripted steps as its stream offset crosses them.
func (p *Proxy) pipeS2C(pr *pair) {
	defer p.wg.Done()
	defer pr.sever()
	p.mu.Lock()
	steps := p.steps[pr.idx]
	p.mu.Unlock()
	next := 0
	var off int64
	buf := make([]byte, forwardChunk)
	for {
		n, rerr := pr.server.Read(buf)
		if n > 0 {
			chunk := buf[:n]
			for next < len(steps) && steps[next].At < off+int64(n) {
				st := steps[next]
				next++
				fsp := p.record(pr, st, off)
				switch st.Kind {
				case Reset:
					fsp.End()
					return
				case Stall, Latency:
					resumed := p.pause(pr, st.Duration)
					fsp.End("resumed", resumed)
					if !resumed {
						return
					}
				case Blackhole:
					p.pause(pr, -1)
					fsp.End()
					return
				case Corrupt:
					idx := st.At - off
					if idx < 0 {
						idx = 0
					}
					chunk[idx] ^= 0xFF
					fsp.End()
				case Partial:
					if half := len(chunk) / 2; half > 0 {
						_, _ = pr.client.Write(chunk[:half])
					}
					fsp.End()
					return
				case Outage:
					p.beginOutage(st.Duration, fsp)
					return
				default:
					fsp.End()
				}
			}
			if _, werr := pr.client.Write(chunk); werr != nil {
				return
			}
			off += int64(n)
		}
		if rerr != nil {
			return
		}
	}
}

// pause sleeps for d (forever when d is negative) or until the pair
// dies or the proxy closes; it reports whether forwarding may resume.
func (p *Proxy) pause(pr *pair, d time.Duration) bool {
	var timer <-chan time.Time
	if d >= 0 {
		timer = time.After(d)
	}
	select {
	case <-timer: // nil — blocking forever — when d < 0
		return true
	case <-pr.dead:
		return false
	case <-p.done:
		return false
	}
}

// beginOutage takes the whole proxy down (listener and connections) and
// schedules the listener's return after d. The fault span (nil when
// untraced) stays open until the listener is back — its duration IS the
// outage window.
func (p *Proxy) beginOutage(d time.Duration, fsp *span.Span) {
	p.Stop()
	if d <= 0 {
		fsp.End("restored", false)
		return
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		select {
		case <-time.After(d):
			_ = p.Restart()
			fsp.End("restored", true)
		case <-p.done:
			fsp.End("restored", false)
		}
	}()
}

// record books one injected fault in the counters and metrics,
// and opens its chaos_fault span (nil when untraced); the caller ends
// it when the fault's effect has run its course.
func (p *Proxy) record(pr *pair, st Step, off int64) *span.Span {
	p.mu.Lock()
	p.injected[st.Kind]++
	p.mu.Unlock()
	p.faults.With(string(st.Kind)).Inc()
	return p.trace.Root(span.NameChaosFault,
		"kind", string(st.Kind),
		"conn", pr.idx,
		"at", st.At,
		"stream_off", off,
		"duration_ms", st.Duration.Milliseconds())
}
