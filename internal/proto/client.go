package proto

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/didclab/eta/internal/crc32c"
	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/obs"
	"github.com/didclab/eta/internal/obs/span"
	"github.com/didclab/eta/internal/units"
)

// dialTimeout bounds each TCP dial the client makes.
const dialTimeout = 10 * time.Second

// sinkError marks a failure of the destination Sink (WriteAt or
// Preallocate) so the executor fails the session with the sink's own
// error instead of blaming the endpoint and re-dialing. It prints and
// unwraps as the sink's error.
type sinkError struct{ err error }

func (e sinkError) Error() string { return e.err.Error() }
func (e sinkError) Unwrap() error { return e.err }

// Client opens transfer channels to one server — or, when Endpoints is
// set, to a pool of server replicas with channels placed weighted
// round-robin across the healthy ones.
type Client struct {
	// Addr is the single server address; ignored when Endpoints is set.
	Addr string
	// Endpoints optionally names N server replicas with placement
	// weights and per-endpoint health tracking. Each OpenChannel draws
	// the next healthy endpoint from the pool and dials the whole
	// channel (control plus data streams) against it; dial/handshake
	// failures are booked against that endpoint so a dead replica is
	// blacklisted out of rotation and probed back in later. Set before
	// the first OpenChannel.
	Endpoints *EndpointPool
	// VerifyChecksums makes every fetched file's content CRC-32C be
	// recomputed from the received blocks (combined across the striped
	// streams) and compared with the server's DONE checksum. This is
	// the integrity feature Globus Online ships with — the paper
	// disables it there "to do fair comparison" because it costs
	// throughput. A mismatch surfaces as ErrChecksumMismatch, which the
	// executor answers by re-fetching the file against the retry
	// budget.
	VerifyChecksums bool
	// BlockSize is the striping unit the server is expected to use; it
	// sizes each stream's read buffer, which the socket reads whole
	// blocks straight into. DefaultBlockSize when zero. A mismatch is
	// only a performance miss: a larger server block replaces the
	// buffer with one that fits.
	BlockSize int
	// StallTimeout arms the per-channel stall watchdog: when requests
	// are outstanding and no bytes arrive on any of the channel's
	// connections for this long, every pending request fails with
	// ErrStalled and the connections are severed (feeding the
	// executor's retry/re-dial path). It also bounds each handshake
	// read. Zero disables the watchdog — a black-holed connection then
	// hangs forever, exactly as before. Set it comfortably above the
	// path's worst-case quiet period (RTT plus scheduling jitter); an
	// idle channel with nothing outstanding never trips.
	StallTimeout time.Duration
	// Journal, when set, receives one block receipt (file, offset,
	// length, CRC-32C) for every payload block written to the sink — the
	// write-ahead record PlanResume replays after a crash. The CRC is
	// computed on the receive path whether or not VerifyChecksums is on
	// (the two share the single per-block Checksum call).
	Journal *Journal
	// Metrics receives live client counters (bytes_received,
	// gets_issued, ...); optional. Set before the first OpenChannel.
	Metrics *obs.Registry
	// Events receives structured transfer events; optional.
	Events *obs.Log
	// Trace, when set, opens a channel span (with dial/stream/GET child
	// spans) per OpenChannel. Channels opened while an executor session
	// is running parent under its transfer root; standalone channels
	// start their own trace.
	Trace *span.Tracer

	// traceParent is the span new channels parent under (the executor's
	// transfer root while a session runs; nil otherwise).
	traceParent atomic.Pointer[span.Span]

	instOnce sync.Once
	inst     clientInstruments

	epOnce sync.Once
	epPool *EndpointPool
}

// pool returns the client's endpoint pool, lazily building a
// single-endpoint pool around Addr when none was configured — so the
// single-server and multi-endpoint paths share one code path. The
// pool inherits the client's Metrics/Events on first use unless it
// brought its own.
func (c *Client) pool() *EndpointPool {
	c.epOnce.Do(func() {
		if c.Endpoints != nil {
			c.epPool = c.Endpoints
		} else {
			c.epPool = &EndpointPool{now: time.Now, eps: []*epState{{ep: Endpoint{Addr: c.Addr, Weight: 1}}}}
		}
		if c.epPool.Metrics == nil {
			c.epPool.Metrics = c.Metrics
		}
		if c.epPool.Events == nil {
			c.epPool.Events = c.Events
		}
	})
	return c.epPool
}

// Target describes the client's server set for reports: the single
// address, or every pool address joined with '+'.
func (c *Client) Target() string {
	if c.Endpoints == nil {
		return c.Addr
	}
	addrs := make([]string, c.Endpoints.Len())
	for i := range addrs {
		addrs[i] = c.Endpoints.Addr(i)
	}
	return strings.Join(addrs, "+")
}

// clientInstruments caches the client-side metrics so the per-block
// receive path costs one nil check instead of a registry lookup.
type clientInstruments struct {
	bytesReceived  *obs.Counter
	filesCompleted *obs.Counter
	getsIssued     *obs.Counter
	getsSettled    *obs.Counter
	getsFailed     *obs.Counter
	channelsDialed *obs.Counter
	stallsDetected *obs.Counter
	settleMS       *obs.Histogram

	dialsByEndpoint *obs.Family
	dialFailsByEP   *obs.Family
}

// instruments resolves the client's metric handles once; with no
// Metrics registry every handle is nil and every update a no-op.
func (c *Client) instruments() *clientInstruments {
	c.instOnce.Do(func() {
		r := c.Metrics
		c.inst = clientInstruments{
			bytesReceived:   r.Counter("bytes_received"),
			filesCompleted:  r.Counter("files_completed"),
			getsIssued:      r.Counter("gets_issued"),
			getsSettled:     r.Counter("gets_settled"),
			getsFailed:      r.Counter("gets_failed"),
			channelsDialed:  r.Counter("channels_dialed"),
			stallsDetected:  r.Counter("stalls_detected"),
			settleMS:        r.Histogram("get_settle_ms"),
			dialsByEndpoint: r.Family("channels_dialed_by_endpoint", "endpoint", endpointLabels...),
			dialFailsByEP:   r.Family("dial_failures_by_endpoint", "endpoint", endpointLabels...),
		}
	})
	return &c.inst
}

func (c *Client) blockSize() int {
	if c.BlockSize > 0 {
		return c.BlockSize
	}
	return DefaultBlockSize
}

func (c *Client) dial(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, dialTimeout)
}

// List fetches the file manifest over a throwaway control connection.
// With an endpoint pool configured the replicas serve one dataset, so a
// failing endpoint is booked against its health record and the next one
// tried — every endpoint gets one attempt before List gives up.
func (c *Client) List() ([]dataset.File, error) {
	pool := c.pool()
	var lastErr error
	for attempt := 0; attempt < pool.Len(); attempt++ {
		idx, addr := pool.Pick()
		files, err := c.listFrom(addr)
		if err == nil {
			pool.ReportSuccess(idx)
			return files, nil
		}
		pool.ReportFailure(idx, err)
		lastErr = err
	}
	return nil, lastErr
}

func (c *Client) listFrom(addr string) ([]dataset.File, error) {
	conn, err := c.dial(addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	// With a stall timeout configured every response read gets a
	// rolling deadline: a black-holed server fails the listing instead
	// of hanging it.
	arm := func() {
		if c.StallTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(c.StallTimeout))
		}
	}
	br := bufio.NewReader(conn)
	if _, err := io.WriteString(conn, "HELLO\n"); err != nil {
		return nil, err
	}
	arm()
	if verb, _, err := readLine(br); err != nil || verb != respOK {
		if err != nil {
			// %w, not %v: callers classify with errors.Is (net timeouts,
			// io.EOF), and a stripped chain would misbook the retry cause.
			return nil, fmt.Errorf("proto: handshake failed: %w", err)
		}
		return nil, fmt.Errorf("proto: handshake failed (verb %q)", verb)
	}
	if _, err := io.WriteString(conn, cmdList+"\n"); err != nil {
		return nil, err
	}
	var files []dataset.File
	for {
		arm()
		verb, fields, err := readLine(br)
		if err != nil {
			return nil, err
		}
		switch verb {
		case respFile:
			if len(fields) != 2 {
				return nil, fmt.Errorf("proto: malformed FILE line %v", fields)
			}
			size, err := strconv.ParseInt(fields[0], 10, 64)
			if err != nil || size < 0 {
				return nil, fmt.Errorf("proto: bad file size %q", fields[0])
			}
			name, err := unescapeName(fields[1])
			if err != nil {
				return nil, err
			}
			files = append(files, dataset.File{Name: name, Size: units.Bytes(size)})
		case respEnd:
			_, _ = io.WriteString(conn, cmdQuit+"\n")
			return files, nil
		case respErr:
			return nil, fmt.Errorf("proto: server error: %v", fields)
		default:
			return nil, fmt.Errorf("proto: unexpected %q during LIST", verb)
		}
	}
}

// Channel is one concurrency unit: a control connection plus
// `parallelism` striped data streams. A channel fetches one file at a
// time but keeps up to `pipelining` GETs outstanding on the control
// channel.
type Channel struct {
	client *Client
	ctrl   net.Conn
	br     *bufio.Reader
	sid    uint64
	inst   *clientInstruments
	ep     int    // endpoint pool index this channel is placed on
	epAddr string // the endpoint's address
	// span covers the channel's whole lifetime (dial through Close);
	// nil when untraced.
	span *span.Span

	streams []net.Conn

	mu      sync.Mutex
	pending map[uint32]*pendingGet
	nextID  uint32
	readErr error

	// progress counts bytes read off every connection; the stall
	// watchdog (when armed) compares it between checks.
	progress  atomic.Int64
	watchStop chan struct{} // nil when no watchdog is running

	wg     sync.WaitGroup
	closed atomic.Bool
}

type pendingGet struct {
	name     string
	offset   int64
	length   int64
	issued   time.Time
	sink     Sink
	span     *span.Span // issue → settle; nil when untraced
	received atomic.Int64
	// session, when set, is the issuing executor session's byte count;
	// every payload byte this request receives is added to it.
	session  *atomic.Int64
	ctrlDone chan struct{} // DONE/ERR line arrived
	dataDone chan struct{} // all payload bytes arrived
	crc      uint32
	err      error
	once     sync.Once
	dataOnce sync.Once

	blockMu sync.Mutex
	blocks  []blockCRC

	failMu  sync.Mutex
	failErr error // transport failure recorded after ctrlDone already fired
}

// abort records a transport failure for an unfinished request. The DONE
// acknowledgement can outrun payload blocks that then never arrive (the
// server wrote everything into socket buffers before the path died), in
// which case finishCtrl is a no-op and the failure must be recorded
// separately — otherwise finish would misread the missing blocks as a
// checksum-tiling corruption. A request whose payload fully arrived is
// left successful.
func (p *pendingGet) abort(err error) {
	p.finishCtrl(0, err)
	<-p.ctrlDone // closed: either just now or by an earlier DONE/ERR
	if p.err == nil && p.received.Load() < p.length {
		p.failMu.Lock()
		if p.failErr == nil {
			p.failErr = err
		}
		p.failMu.Unlock()
	}
	p.dataOnce.Do(func() { close(p.dataDone) })
}

// transportErr returns the failure recorded by abort, if any.
func (p *pendingGet) transportErr() error {
	p.failMu.Lock()
	defer p.failMu.Unlock()
	return p.failErr
}

// recordBlock remembers a received block's precomputed CRC for later
// combination.
func (p *pendingGet) recordBlock(off, n int64, c uint32) {
	p.blockMu.Lock()
	p.blocks = append(p.blocks, blockCRC{off: off, n: n, crc: c})
	p.blockMu.Unlock()
}

// verifyChecksum combines the block CRCs and compares them with the
// server's whole-file checksum.
func (p *pendingGet) verifyChecksum() error {
	p.blockMu.Lock()
	defer p.blockMu.Unlock()
	normalized := make([]blockCRC, len(p.blocks))
	for i, b := range p.blocks {
		normalized[i] = blockCRC{off: b.off - p.offset, n: b.n, crc: b.crc}
	}
	got, ok := combineBlocks(normalized, p.length)
	if !ok {
		return fmt.Errorf("%w: %s: received blocks do not tile the requested range", ErrChecksumMismatch, p.name)
	}
	if got != p.crc {
		return fmt.Errorf("%w: %s: got %08x, server sent %08x", ErrChecksumMismatch, p.name, got, p.crc)
	}
	return nil
}

func (p *pendingGet) finishCtrl(crc uint32, err error) {
	p.once.Do(func() {
		p.crc = crc
		p.err = err
		close(p.ctrlDone)
	})
}

// holds reports whether block h lies inside the request's range.
func (p *pendingGet) holds(h blockHeader) bool {
	end := uint64(p.offset + p.length)
	return h.Offset >= uint64(p.offset) && h.Offset <= end && uint64(h.Length) <= end-h.Offset
}

func (p *pendingGet) addBytes(n int64) {
	if p.received.Add(n) >= p.length {
		p.dataOnce.Do(func() { close(p.dataDone) })
	}
}

// OpenChannel dials a control connection and `parallelism` data
// streams against the next healthy endpoint (weighted round-robin when
// a pool is configured; the single Addr otherwise). Dial or handshake
// failures are booked against that endpoint's health record.
func (c *Client) OpenChannel(parallelism int) (*Channel, error) {
	if parallelism < 1 {
		return nil, fmt.Errorf("proto: parallelism %d < 1", parallelism)
	}
	pool := c.pool()
	ep, addr := pool.Pick()
	// The channel span runs dial through Close; the dial child covers
	// just the handshake (ctrl dial, HELLO, DATA streams, OPEN). A
	// channel opened outside an executor session roots its own trace.
	chSpan := c.Trace.StartChild(c.traceParent.Load(), span.NameChannel,
		"endpoint", ep, "addr", addr, "parallelism", parallelism)
	dialSpan := chSpan.Child(span.NameChannelDial)
	// openFail books an endpoint-open failure exactly once per path.
	openFail := func(err error) error {
		pool.ReportFailure(ep, err)
		c.instruments().dialFailsByEP.With(strconv.Itoa(ep)).Inc()
		dialSpan.End("error", err.Error())
		chSpan.End("error", err.Error())
		return err
	}
	ctrl, err := c.dial(addr)
	if err != nil {
		return nil, openFail(err)
	}
	ch := &Channel{
		client:  c,
		ctrl:    ctrl,
		inst:    c.instruments(),
		ep:      ep,
		epAddr:  addr,
		span:    chSpan,
		pending: make(map[uint32]*pendingGet),
	}
	// Every connection reads through a progress counter so the stall
	// watchdog can tell "slow" from "dead"; handshake reads get a
	// plain deadline (a definite response is expected, so a stall here
	// is immediately fatal rather than watchdog-detected).
	ch.br = bufio.NewReader(progressConn{Conn: ctrl, progress: &ch.progress})
	armCtrl := func() {
		if c.StallTimeout > 0 {
			_ = ctrl.SetReadDeadline(time.Now().Add(c.StallTimeout))
		}
	}
	if _, err := io.WriteString(ctrl, "HELLO\n"); err != nil {
		ctrl.Close()
		return nil, openFail(err)
	}
	armCtrl()
	verb, fields, err := readLine(ch.br)
	if err != nil {
		ctrl.Close()
		// %w keeps the cause visible to errors.Is so the executor books
		// the retry under the right budget (timeout vs transport).
		return nil, openFail(fmt.Errorf("proto: handshake failed: %w", err))
	}
	if verb != respOK || len(fields) != 1 {
		ctrl.Close()
		return nil, openFail(fmt.Errorf("proto: handshake failed (verb %q fields %v)", verb, fields))
	}
	sid, err := strconv.ParseUint(fields[0], 10, 64)
	if err != nil {
		ctrl.Close()
		return nil, openFail(fmt.Errorf("proto: bad session id %q", fields[0]))
	}
	ch.sid = sid

	for i := 0; i < parallelism; i++ {
		data, err := c.dial(addr)
		if err != nil {
			ch.Close()
			return nil, openFail(err)
		}
		// The DATA handshake is one short write, but a black-holed
		// server with a full TCP window would park it forever; bound it
		// like the control reads, then clear — steady-state data conns
		// are the watchdog's job.
		if c.StallTimeout > 0 {
			_ = data.SetWriteDeadline(time.Now().Add(c.StallTimeout))
		}
		if _, err := fmt.Fprintf(data, "%s %d %d\n", cmdData, sid, i); err != nil {
			data.Close()
			ch.Close()
			return nil, openFail(err)
		}
		if c.StallTimeout > 0 {
			_ = data.SetWriteDeadline(time.Time{})
		}
		ch.streams = append(ch.streams, progressConn{Conn: data, progress: &ch.progress})
	}
	if _, err := fmt.Fprintf(ctrl, "%s %d\n", cmdOpen, parallelism); err != nil {
		ch.Close()
		return nil, openFail(err)
	}
	armCtrl()
	if verb, fields, err := readLine(ch.br); err != nil || verb != respOK {
		ch.Close()
		if err != nil {
			return nil, openFail(fmt.Errorf("proto: OPEN failed: %w", err))
		}
		return nil, openFail(fmt.Errorf("proto: OPEN failed (verb %q fields %v)", verb, fields))
	}
	if c.StallTimeout > 0 {
		// Steady state is watchdog territory: clear the handshake
		// deadline or it would fire on a legitimately idle channel.
		_ = ctrl.SetReadDeadline(time.Time{})
	}

	// Control reader (DONE/ERR) and per-stream block readers.
	ch.wg.Add(1)
	go ch.controlLoop()
	for _, s := range ch.streams {
		ch.wg.Add(1)
		go ch.streamLoop(s)
	}
	if c.StallTimeout > 0 {
		ch.watchStop = make(chan struct{})
		ch.wg.Add(1)
		go ch.watchdog(c.StallTimeout)
	}
	pool.ReportSuccess(ep)
	dialSpan.End("sid", sid)
	ch.inst.channelsDialed.Inc()
	ch.inst.dialsByEndpoint.With(strconv.Itoa(ep)).Inc()
	return ch, nil
}

// Parallelism returns the channel's data stream count.
func (ch *Channel) Parallelism() int { return len(ch.streams) }

// Endpoint returns the pool index of the endpoint this channel was
// placed on (0 for a single-address client).
func (ch *Channel) Endpoint() int { return ch.ep }

// EndpointAddr returns the address of the endpoint this channel dialed.
func (ch *Channel) EndpointAddr() string { return ch.epAddr }

func (ch *Channel) controlLoop() {
	defer ch.wg.Done()
	for {
		verb, fields, err := readLine(ch.br)
		if err != nil {
			ch.failAll(err)
			return
		}
		switch verb {
		case respDone:
			if len(fields) != 2 {
				continue
			}
			id64, err1 := strconv.ParseUint(fields[0], 10, 32)
			crc64, err2 := strconv.ParseUint(fields[1], 10, 32)
			if err1 != nil || err2 != nil {
				continue
			}
			if p := ch.lookup(uint32(id64)); p != nil {
				p.finishCtrl(uint32(crc64), nil)
			}
		case respErr:
			if len(fields) >= 1 {
				if id64, err := strconv.ParseUint(fields[0], 10, 32); err == nil {
					if p := ch.lookup(uint32(id64)); p != nil {
						p.finishCtrl(0, fmt.Errorf("proto: server error: %v", fields[1:]))
						p.dataOnce.Do(func() { close(p.dataDone) })
					}
				}
			}
		}
	}
}

func (ch *Channel) streamLoop(conn net.Conn) {
	defer ch.wg.Done()
	// One stream span per read loop: its bytes are the stream's share of
	// the channel's payload, its duration the stream's useful lifetime.
	ssp := ch.span.Child(span.NameChannelStream)
	defer ssp.End()
	// One buffer per stream, owned by this loop for the connection's
	// lifetime: the frame reader parses every block in it in place, so
	// the socket's bytes are copied once and the steady-state receive
	// path never allocates per block.
	fr := frameReader{r: conn, buf: make([]byte, blockHeaderSize+ch.client.blockSize()+frameReadAhead)}
	for {
		h, payload, err := fr.next()
		if err != nil {
			ch.failAll(err)
			return
		}
		p := ch.lookup(h.ReqID)
		if p == nil {
			continue // request was abandoned
		}
		if !p.holds(h) {
			// A block outside its GET would land on bytes the GET was not
			// asked to move, while the range it was asked for stays
			// unwritten.
			ch.failAll(fmt.Errorf("proto: block %d+%d of request %d outside its range %d+%d",
				h.Offset, h.Length, h.ReqID, p.offset, p.length))
			return
		}
		if _, err := p.sink.WriteAt(p.name, payload, int64(h.Offset)); err != nil {
			p.abort(sinkError{err})
			continue
		}
		if ch.client.VerifyChecksums || ch.client.Journal != nil {
			// One Checksum call serves both consumers; only the uint32
			// crosses into the journal, never the payload buffer.
			c := crc32c.Checksum(payload)
			if ch.client.VerifyChecksums {
				p.recordBlock(int64(h.Offset), int64(h.Length), c)
			}
			ch.client.Journal.Append(p.name, int64(h.Offset), int64(h.Length), c)
		}
		if p.session != nil {
			p.session.Add(int64(h.Length))
		}
		ch.inst.bytesReceived.Add(int64(h.Length))
		ssp.AddBytes(int64(h.Length))
		p.span.AddBytes(int64(h.Length))
		p.addBytes(int64(h.Length))
	}
}

func (ch *Channel) lookup(id uint32) *pendingGet {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.pending[id]
}

func (ch *Channel) failAll(err error) {
	if ch.closed.Load() {
		return
	}
	ch.mu.Lock()
	if ch.readErr == nil {
		ch.readErr = err
	}
	pend := make([]*pendingGet, 0, len(ch.pending))
	for _, p := range ch.pending {
		pend = append(pend, p)
	}
	ch.mu.Unlock()
	for _, p := range pend {
		p.abort(err)
	}
}

// get issues one pipelined ranged GET and returns its pending handle.
// Received payload bytes are added to session when it is non-nil.
func (ch *Channel) get(r FileRange, sink Sink, session *atomic.Int64) (*pendingGet, error) {
	ch.mu.Lock()
	if ch.readErr != nil {
		err := ch.readErr
		ch.mu.Unlock()
		return nil, err
	}
	ch.nextID++
	id := ch.nextID
	p := &pendingGet{
		name:     r.File.Name,
		offset:   int64(r.Offset),
		length:   int64(r.Remaining()),
		issued:   time.Now(),
		sink:     sink,
		session:  session,
		ctrlDone: make(chan struct{}),
		dataDone: make(chan struct{}),
	}
	p.span = ch.span.Child(span.NameGet,
		"id", id, "file", r.File.Name, "offset", p.offset, "length", p.length)
	if p.length == 0 {
		p.dataOnce.Do(func() { close(p.dataDone) })
	}
	ch.pending[id] = p
	ch.mu.Unlock()

	// Reserve the file's FINAL size before any payload arrives, so the
	// striped out-of-order WriteAts land inside an already-sized file.
	// The full size, not the range end: recovery issues mid-file gap
	// ranges, and sizing to a range end would truncate verified bytes
	// past it.
	if pa, ok := sink.(Preallocator); ok && p.length > 0 {
		if err := pa.Preallocate(p.name, int64(r.File.Size)); err != nil {
			ch.release(p)
			p.span.End("error", err.Error())
			return nil, sinkError{err}
		}
	}

	line := formatGet(getRequest{ID: id, Name: r.File.Name, Offset: p.offset, Length: p.length})
	if _, err := io.WriteString(ch.ctrl, line); err != nil {
		ch.mu.Lock()
		delete(ch.pending, id)
		ch.mu.Unlock()
		p.span.End("error", err.Error())
		return nil, err
	}
	ch.inst.getsIssued.Inc()
	return p, nil
}

func (ch *Channel) release(p *pendingGet) {
	ch.mu.Lock()
	for id, q := range ch.pending {
		if q == p {
			delete(ch.pending, id)
			break
		}
	}
	ch.mu.Unlock()
}

// finish waits for a request's payload and acknowledgement, releases
// it, and runs the optional integrity check.
func (ch *Channel) finish(p *pendingGet) error {
	<-p.dataDone
	<-p.ctrlDone
	ch.release(p)
	err := p.err
	if err == nil {
		err = p.transportErr()
	}
	if err == nil && ch.client.VerifyChecksums && p.length > 0 {
		err = p.verifyChecksum()
	}
	if err != nil {
		ch.inst.getsFailed.Inc()
		p.span.End("error", err.Error())
		return err
	}
	ch.inst.getsSettled.Inc()
	ch.inst.settleMS.Observe(float64(time.Since(p.issued)) / float64(time.Millisecond))
	p.span.End()
	return nil
}

// FetchResult summarizes one Fetch call.
type FetchResult struct {
	Files int
	Bytes units.Bytes
}

// Fetch transfers the files in order, keeping up to `pipelining` GETs
// outstanding, writing payloads into sink. It returns after every file
// has fully arrived and been acknowledged.
func (ch *Channel) Fetch(files []dataset.File, pipelining int, sink Sink) (FetchResult, error) {
	return ch.FetchRanges(WholeFiles(files), pipelining, sink)
}

// FetchRanges is Fetch for resumable byte ranges: each entry transfers
// [Offset, File.Size) of its file.
func (ch *Channel) FetchRanges(ranges []FileRange, pipelining int, sink Sink) (FetchResult, error) {
	if pipelining < 1 {
		pipelining = 1
	}
	var result FetchResult
	window := make([]*pendingGet, 0, pipelining)
	next := 0
	for next < len(ranges) || len(window) > 0 {
		for len(window) < pipelining && next < len(ranges) {
			p, err := ch.get(ranges[next], sink, nil)
			if err != nil {
				return result, err
			}
			window = append(window, p)
			next++
		}
		// Wait for the oldest request (FIFO service on the server).
		p := window[0]
		window = window[1:]
		if err := ch.finish(p); err != nil {
			return result, err
		}
		if err := sink.Close(p.name); err != nil {
			return result, err
		}
		result.Files++
		result.Bytes += units.Bytes(p.length)
		ch.inst.filesCompleted.Inc()
	}
	return result, nil
}

// Close tears the channel down.
func (ch *Channel) Close() error {
	if !ch.closed.CompareAndSwap(false, true) {
		return nil
	}
	if ch.watchStop != nil {
		close(ch.watchStop)
	}
	_, _ = io.WriteString(ch.ctrl, cmdQuit+"\n")
	err := ch.ctrl.Close()
	for _, s := range ch.streams {
		s.Close()
	}
	ch.mu.Lock()
	pend := make([]*pendingGet, 0, len(ch.pending))
	for _, p := range ch.pending {
		pend = append(pend, p)
	}
	ch.mu.Unlock()
	for _, p := range pend {
		p.finishCtrl(0, fmt.Errorf("proto: channel closed"))
		p.dataOnce.Do(func() { close(p.dataDone) })
		// End is idempotent, so a racing finish() on the settle path is
		// harmless; without this, a GET abandoned at teardown would leak
		// its span.
		p.span.End("error", "channel closed")
	}
	ch.wg.Wait()
	ch.span.End()
	return err
}
