package proto

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/didclab/eta/internal/obs"
	"github.com/didclab/eta/internal/obs/span"
	"github.com/didclab/eta/internal/units"
)

// ServerConfig shapes a transfer server.
type ServerConfig struct {
	Store Store
	// Metrics receives live server counters (server_bytes_served,
	// server_sessions_total, ...); optional.
	Metrics *obs.Registry
	// Events receives the server's point events (server_draining,
	// server_drained); sessions and GETs are recorded as Trace's spans.
	// Optional.
	Events *obs.Log
	// Trace, when set, roots one server_session span per control
	// session, with server_get and server_stream children. In a loopback
	// run it may share the client's tracer and event log; span IDs are
	// process-global, so the two sides cannot collide.
	Trace *span.Tracer
	// PerStreamRate caps each data stream (the stand-in for the TCP
	// window limit); zero means unlimited.
	PerStreamRate units.Rate
	// LinkRate caps the aggregate of all data streams; zero means
	// unlimited.
	LinkRate units.Rate
	// ControlRTT is the emulated round-trip time of the control
	// channel: requests and completions are each delayed by half of
	// it. Pipelining exists to hide exactly this delay.
	ControlRTT time.Duration
	// BlockSize is the striping unit; DefaultBlockSize when zero.
	BlockSize int
	// StallTimeout bounds every control and data write: a client that
	// stops draining its sockets (black-holed, frozen, or gone without
	// a reset) turns into a write timeout instead of a goroutine parked
	// forever in Write, and a failed control write tears the session
	// down. Zero disables the deadlines. Set it above the worst-case
	// client-side pause (the shaping limiters run server-side and do
	// not count against it).
	StallTimeout time.Duration
	// Logf receives diagnostic messages; silent when nil.
	Logf func(format string, args ...any)
}

func (c ServerConfig) blockSize() int {
	if c.BlockSize > 0 {
		return c.BlockSize
	}
	return DefaultBlockSize
}

// dataDialTimeout bounds how long OPEN waits for the client's data
// connections to arrive.
const dataDialTimeout = 10 * time.Second

// maxBatchBlocks caps how many queued blocks one writev gathers on an
// unshaped stream with backlog, amortizing syscalls without holding
// more than a few pooled buffers per stream.
const maxBatchBlocks = 8

func (c ServerConfig) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Server accepts control and data connections and serves GETs.
type Server struct {
	cfg  ServerConfig
	ln   net.Listener
	link *Limiter
	inst serverInstruments

	// crcSidecars caches per-file block CRCs across serves of a store
	// that implements Versioner.
	crcSidecars *crcCache

	mu       sync.Mutex
	sessions map[uint64]*serverSession
	nextSID  uint64
	closed   bool
	draining bool
	wg       sync.WaitGroup
}

// serverInstruments caches the server-side metric handles (nil and
// no-op without a registry).
type serverInstruments struct {
	sessionsTotal    *obs.Counter
	sessionsRejected *obs.Counter
	requestsServed   *obs.Counter
	requestsFailed   *obs.Counter
	bytesServed      *obs.Counter
	serveMS          *obs.Histogram
	writevBatches    *obs.Counter
	writevBlocks     *obs.Counter
	crcCacheHits     *obs.Counter
	crcCacheMisses   *obs.Counter
	sendfileBlocks   *obs.Counter
}

// Serve starts a server on ln. Close the server to stop it.
func Serve(ln net.Listener, cfg ServerConfig) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("proto: server needs a store")
	}
	s := &Server{
		cfg:         cfg,
		ln:          ln,
		link:        NewLimiter(cfg.LinkRate),
		sessions:    make(map[uint64]*serverSession),
		crcSidecars: newCRCCache(0),
		inst: serverInstruments{
			sessionsTotal:    cfg.Metrics.Counter("server_sessions_total"),
			sessionsRejected: cfg.Metrics.Counter("server_sessions_rejected"),
			requestsServed:   cfg.Metrics.Counter("server_requests_served"),
			requestsFailed:   cfg.Metrics.Counter("server_requests_failed"),
			bytesServed:      cfg.Metrics.Counter("server_bytes_served"),
			serveMS:          cfg.Metrics.Histogram("server_get_serve_ms"),
			writevBatches:    cfg.Metrics.Counter("server_writev_batches"),
			writevBlocks:     cfg.Metrics.Counter("server_writev_blocks"),
			crcCacheHits:     cfg.Metrics.Counter("server_crc_cache_hits"),
			crcCacheMisses:   cfg.Metrics.Counter("server_crc_cache_misses"),
			sendfileBlocks:   cfg.Metrics.Counter("server_sendfile_blocks"),
		},
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// ListenAndServe starts a server on addr.
func ListenAndServe(addr string, cfg ServerConfig) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return Serve(ln, cfg)
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting and tears down all sessions.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	sessions := make([]*serverSession, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, sess := range sessions {
		sess.close()
	}
	s.wg.Wait()
	return err
}

// Draining reports whether the server has stopped accepting new
// sessions (Drain was called and has not finished closing).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain is the graceful half of shutdown: it immediately stops
// accepting new control sessions (each is refused with an ERR line —
// data-stream attaches for live sessions still work), waits up to
// timeout for the in-flight sessions to finish on their own, then
// closes the server, severing whatever is left. It emits
// server_draining on entry and server_drained (with the count of
// force-closed sessions) before the final Close.
func (s *Server) Drain(timeout time.Duration) error {
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		return s.Close()
	}
	s.draining = true
	active := len(s.sessions)
	s.mu.Unlock()
	s.cfg.Events.Emit(obs.EvServerDraining,
		"active_sessions", active,
		"timeout_ms", timeout.Milliseconds())
	deadline := time.Now().Add(timeout)
	remaining := 0
	for {
		s.mu.Lock()
		remaining = len(s.sessions)
		s.mu.Unlock()
		if remaining == 0 || !time.Now().Before(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.cfg.Events.Emit(obs.EvServerDrained,
		"remaining_sessions", remaining,
		"forced", remaining > 0)
	return s.Close()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
		}()
	}
}

// handleConn classifies a connection by its first line: "HELLO" starts
// a control session, "DATA <sid> <idx>" attaches a data stream.
func (s *Server) handleConn(conn net.Conn) {
	// A peer that connects and never finishes the one-line handshake
	// (or never drains our one-line reply) would otherwise pin this
	// goroutine forever — before classification there is no session,
	// so no watchdog or write deadline covers the conn yet.
	if t := s.cfg.StallTimeout; t > 0 {
		_ = conn.SetDeadline(time.Now().Add(t))
	}
	// disarm clears the handshake deadline before the conn enters
	// steady state: control sessions idle legitimately between
	// requests, and data writes arm their own per-write deadlines.
	disarm := func() {
		if s.cfg.StallTimeout > 0 {
			_ = conn.SetDeadline(time.Time{})
		}
	}
	br := bufio.NewReaderSize(conn, 64*1024)
	verb, fields, err := readLine(br)
	if err != nil {
		conn.Close()
		return
	}
	switch verb {
	case "HELLO":
		disarm()
		s.runControl(conn, br)
	case cmdData:
		if len(fields) != 2 {
			fmt.Fprintf(conn, "%s bad DATA handshake\n", respErr)
			conn.Close()
			return
		}
		sid, err1 := strconv.ParseUint(fields[0], 10, 64)
		idx, err2 := strconv.Atoi(fields[1])
		if err1 != nil || err2 != nil || idx < 0 {
			fmt.Fprintf(conn, "%s bad DATA handshake\n", respErr)
			conn.Close()
			return
		}
		s.mu.Lock()
		sess := s.sessions[sid]
		s.mu.Unlock()
		if sess == nil {
			fmt.Fprintf(conn, "%s unknown session\n", respErr)
			conn.Close()
			return
		}
		disarm()
		sess.attachData(idx, conn)
	default:
		fmt.Fprintf(conn, "%s expected HELLO or DATA\n", respErr)
		conn.Close()
	}
}

// serverSession is one control connection plus its data streams.
type serverSession struct {
	srv  *Server
	sid  uint64
	ctrl net.Conn

	writeMu sync.Mutex    // guards ctrl writes
	bw      *bufio.Writer // buffers multi-line replies (LIST); guarded by writeMu

	dataMu  sync.Mutex
	data    []net.Conn
	dataGot chan struct{}

	reqs   chan getRequest
	closed atomic.Bool

	// span roots the session's trace (server_session); nil when the
	// server is untraced.
	span *span.Span
}

func (s *Server) runControl(conn net.Conn, br *bufio.Reader) {
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		s.inst.sessionsRejected.Inc()
		// A definite refusal (not just a hangup) so the client books the
		// endpoint failure immediately; bounded like every control write.
		if t := s.cfg.StallTimeout; t > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(t))
		}
		fmt.Fprintf(conn, "%s server draining\n", respErr)
		conn.Close()
		return
	}
	s.nextSID++
	sess := &serverSession{
		srv:     s,
		sid:     s.nextSID,
		ctrl:    conn,
		dataGot: make(chan struct{}, 1),
		reqs:    make(chan getRequest, 1024),
		//lint:allow deadlineio every flush of bw arms SetWriteDeadline on sess.ctrl first (send, sendRaw, LIST)
		bw: bufio.NewWriter(conn),
	}
	s.sessions[sess.sid] = sess
	s.mu.Unlock()
	s.inst.sessionsTotal.Inc()
	sess.span = s.cfg.Trace.Root(span.NameServerSession,
		"sid", sess.sid, "remote", conn.RemoteAddr().String())

	defer func() {
		s.mu.Lock()
		delete(s.sessions, sess.sid)
		s.mu.Unlock()
		sess.close()
		sess.span.End()
	}()

	sess.send("%s %d\n", respOK, sess.sid)

	// Request propagation and completion delivery each carry half the
	// control RTT; the server loop itself never waits on the client,
	// which is what makes pipelined GETs back-to-back.
	reqQueue := newDelayQueue(s.cfg.ControlRTT/2, 1024, func(r getRequest) {
		select {
		case sess.reqs <- r:
		default:
			sess.send("%s %d request queue overflow\n", respErr, r.ID)
		}
	})
	doneQueue := newDelayQueue(s.cfg.ControlRTT/2, 1024, func(line string) {
		sess.sendRaw(line)
	})

	var serveWG sync.WaitGroup
	serveWG.Add(1)
	go func() {
		defer serveWG.Done()
		sess.serveLoop(doneQueue)
	}()
	// Teardown order matters: the request queue must be fully drained
	// (delayed GETs land in sess.reqs or are dropped) before sess.reqs
	// closes, otherwise a delayed delivery would send on a closed
	// channel; completions flush last so settled GETs still get their
	// DONE lines.
	defer func() {
		reqQueue.Close()
		close(sess.reqs)
		serveWG.Wait()
		doneQueue.Close()
	}()

	for {
		verb, fields, err := readLine(br)
		if err != nil {
			return
		}
		switch verb {
		case cmdList:
			files, err := s.cfg.Store.List()
			if err != nil {
				sess.send("%s %v\n", respErr, err)
				continue
			}
			// The session-lifetime bufio.Writer (under writeMu) replaces a
			// per-request allocation; it holds no bytes between requests
			// because every use ends with a Flush before the unlock.
			sess.writeMu.Lock()
			if t := s.cfg.StallTimeout; t > 0 {
				_ = sess.ctrl.SetWriteDeadline(time.Now().Add(t))
			}
			for _, f := range files {
				fmt.Fprintf(sess.bw, "%s %d %s\n", respFile, int64(f.Size), escapeName(f.Name))
			}
			fmt.Fprintf(sess.bw, "%s\n", respEnd)
			err = sess.bw.Flush()
			sess.writeMu.Unlock()
			if err != nil {
				// Same contract as sendRaw: a control channel that cannot
				// carry replies means the peer lost protocol state.
				s.cfg.logf("proto: control write on session %d: %v", sess.sid, err)
				sess.close()
				return
			}
		case cmdOpen:
			if len(fields) != 1 {
				sess.send("%s OPEN wants a stream count\n", respErr)
				continue
			}
			n, err := strconv.Atoi(fields[0])
			if err != nil || n < 1 || n > 256 {
				sess.send("%s bad stream count %q\n", respErr, fields[0])
				continue
			}
			if err := sess.waitForStreams(n, dataDialTimeout); err != nil {
				sess.send("%s %v\n", respErr, err)
				continue
			}
			sess.send("%s %d\n", respOK, n)
		case cmdGet:
			req, err := parseGet(fields)
			if err != nil {
				sess.send("%s %v\n", respErr, err)
				continue
			}
			reqQueue.Push(req)
		case cmdQuit:
			return
		default:
			sess.send("%s unknown command %q\n", respErr, verb)
		}
	}
}

func (sess *serverSession) send(format string, args ...any) {
	sess.sendRaw(fmt.Sprintf(format, args...))
}

func (sess *serverSession) sendRaw(line string) {
	sess.writeMu.Lock()
	if sess.closed.Load() {
		sess.writeMu.Unlock()
		return
	}
	if t := sess.srv.cfg.StallTimeout; t > 0 {
		_ = sess.ctrl.SetWriteDeadline(time.Now().Add(t))
	}
	_, err := io.WriteString(sess.ctrl, line)
	sess.writeMu.Unlock()
	if err != nil {
		// A client that cannot take control lines has lost protocol
		// state (a DONE/ERR just vanished); tear the session down so
		// its resources are not held by a dead peer.
		sess.srv.cfg.logf("proto: control write on session %d: %v", sess.sid, err)
		sess.close()
	}
}

func (sess *serverSession) attachData(idx int, conn net.Conn) {
	sess.dataMu.Lock()
	for len(sess.data) <= idx {
		sess.data = append(sess.data, nil)
	}
	if sess.data[idx] != nil {
		sess.data[idx].Close()
	}
	sess.data[idx] = conn
	sess.dataMu.Unlock()
	select {
	case sess.dataGot <- struct{}{}:
	default:
	}
}

func (sess *serverSession) waitForStreams(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		sess.dataMu.Lock()
		have := 0
		for _, c := range sess.data {
			if c != nil {
				have++
			}
		}
		sess.dataMu.Unlock()
		if have >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %d data streams", n)
		}
		select {
		case <-sess.dataGot:
		case <-time.After(50 * time.Millisecond):
		}
	}
}

func (sess *serverSession) streams() []net.Conn {
	sess.dataMu.Lock()
	defer sess.dataMu.Unlock()
	var out []net.Conn
	for _, c := range sess.data {
		if c != nil {
			out = append(out, c)
		}
	}
	return out
}

// serveLoop handles GETs in arrival order. Each request is striped in
// block-sized units round-robin across the session's data streams,
// with a per-stream writer goroutine so slow streams do not stall fast
// ones more than the striping requires.
func (sess *serverSession) serveLoop(doneQueue *delayQueue[string]) {
	for req := range sess.reqs {
		start := time.Now()
		gsp := sess.span.Child(span.NameServerGet,
			"id", req.ID, "file", req.Name, "offset", req.Offset, "length", req.Length)
		if err := sess.serveGet(req, gsp, doneQueue); err != nil {
			sess.srv.cfg.logf("proto: session %d GET %d (%s): %v", sess.sid, req.ID, req.Name, err)
			sess.srv.inst.requestsFailed.Inc()
			gsp.End("error", err.Error())
			doneQueue.Push(fmt.Sprintf("%s %d %v\n", respErr, req.ID, err))
			continue
		}
		sess.srv.inst.serveMS.Observe(float64(time.Since(start)) / float64(time.Millisecond))
		gsp.AddBytes(req.Length)
		gsp.End()
	}
}

// queuedBlock is one block in flight from the serve loop to a stream
// writer: the framing header plus its payload, which is either a pooled
// buffer the receiving writer owns (it returns it to the pool once the
// bytes are written or dropped) or, when buf is nil, the header's range
// of file, sent by sendfile.
type queuedBlock struct {
	header blockHeader
	buf    *[]byte
	file   *os.File
}

// collectBatch fills batch[:0] from q: it blocks for the first block,
// then opportunistically drains blocks the serve loop already queued —
// without blocking — up to max total. The bool reports whether q is
// still open; a close observed mid-drain still returns the gathered
// batch so the caller flushes it before exiting.
func collectBatch(q <-chan queuedBlock, batch []queuedBlock, max int) ([]queuedBlock, bool) {
	batch = batch[:0]
	b, ok := <-q
	if !ok {
		return batch, false
	}
	batch = append(batch, b)
	for len(batch) < max {
		select {
		case b, ok := <-q:
			if !ok {
				return batch, false
			}
			batch = append(batch, b)
		default:
			return batch, true
		}
	}
	return batch, true
}

func (sess *serverSession) serveGet(req getRequest, gsp *span.Span, doneQueue *delayQueue[string]) error {
	streams := sess.streams()
	if len(streams) == 0 {
		return fmt.Errorf("no data streams attached")
	}
	blockSize := sess.srv.cfg.blockSize()

	// The whole-range CRC is built by combining per-block CRCs with
	// CRC32CCombine. When the store can vouch for the file's identity
	// and the range is block-aligned, block CRCs come from (and feed)
	// the sidecar cache. A block whose CRC is cached has no reason to
	// pass through user space: on a stream that can take it, it is
	// queued as a file range and sent by sendfile. Every other block is
	// read into a pooled buffer.
	var sidecar *crcSidecar
	if req.Offset%int64(blockSize) == 0 {
		if v, ok := sess.srv.cfg.Store.(Versioner); ok {
			if size, mtime, ok := v.Version(req.Name); ok {
				sidecar = sess.srv.crcSidecars.open(req.Name, size, mtime, blockSize)
			}
		}
	}

	// A store that hands out file handles is opened once for the whole
	// GET. The identity above is taken first: a file replaced in between
	// is then served under the old identity, which no later serve
	// matches, instead of filing the old file's CRCs under the new one.
	// The deferred close runs after wg.Wait below, when no writer can
	// still be sending from the file.
	var file *os.File
	if o, ok := sess.srv.cfg.Store.(Opener); ok && req.Length > 0 {
		f, err := o.Open(req.Name)
		if err != nil {
			return fmt.Errorf("opening %s: %w", req.Name, err)
		}
		defer f.Close()
		file = f
	}

	// Unshaped streams gather queue backlog into multi-block writev
	// batches; shaped streams stay at one block per write so the
	// limiters keep pacing at block granularity (the header+payload
	// coalescing into a single vectored write applies either way).
	maxBatch := 1
	if sess.srv.cfg.PerStreamRate == 0 && sess.srv.cfg.LinkRate == 0 {
		maxBatch = maxBatchBlocks
	}
	queueDepth := 4
	if maxBatch > queueDepth {
		queueDepth = maxBatch
	}

	// Per-stream block queues and writer goroutines. Buffered payloads
	// ride in pooled buffers: the reader below fills one per block, and
	// the writer that receives it owns it, so the steady-state path
	// allocates nothing per block.
	queues := make([]chan queuedBlock, len(streams))
	writers := make([]*streamWriter, len(streams))
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	for i := range streams {
		queues[i] = make(chan queuedBlock, queueDepth)
		w := newStreamWriter(streams[i], maxBatch, NewLimiter(sess.srv.cfg.PerStreamRate), sess.srv.link,
			sess.srv.cfg.StallTimeout, &sess.srv.inst)
		if file != nil {
			w.file = newFileSender(streams[i])
		}
		writers[i] = w
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ssp := gsp.Child(span.NameServerStream, "stream", i)
			defer ssp.End()
			batch := make([]queuedBlock, 0, maxBatch)
			for {
				var open bool
				batch, open = collectBatch(queues[i], batch, maxBatch)
				if len(batch) > 0 && errs[i] == nil {
					n, err := w.write(batch)
					errs[i] = err
					ssp.AddBytes(n)
				}
				for _, b := range batch {
					putBlockBuf(b.buf)
				}
				if !open {
					return
				}
			}
		}(i)
	}

	var crcState uint32
	var readErr error
	offset := req.Offset
	remaining := req.Length
	for blockIdx := 0; remaining > 0; blockIdx++ {
		n := int64(blockSize)
		if n > remaining {
			n = remaining
		}
		q := blockIdx % len(queues)
		block := queuedBlock{header: blockHeader{ReqID: req.ID, Offset: uint64(offset), Length: uint32(n)}}
		bcrc, cached := sidecar.lookup(offset, n)
		if cached && writers[q].file != nil {
			block.file = file
		} else {
			bufp := getBlockBuf(int(n))
			if err := sess.readBlock(req.Name, file, *bufp, offset); err != nil {
				putBlockBuf(bufp)
				readErr = err
				break
			}
			block.buf = bufp
			if !cached {
				bcrc = crc32.Checksum(*bufp, crcTable)
				if sidecar != nil {
					sidecar.store(offset, n, bcrc)
					sess.srv.inst.crcCacheMisses.Inc()
				}
			}
		}
		if cached {
			sess.srv.inst.crcCacheHits.Inc()
		}
		crcState = CRC32CCombine(crcState, bcrc, n)
		queues[q] <- block
		offset += n
		remaining -= n
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	if readErr != nil {
		return readErr
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	sess.srv.inst.requestsServed.Inc()
	sess.srv.inst.bytesServed.Add(req.Length)
	doneQueue.Push(fmt.Sprintf("%s %d %d\n", respDone, req.ID, crcState))
	return nil
}

// readBlock fills p with the file's bytes at off: from the GET's own
// handle when the store gave one, through Store.ReadAt otherwise.
func (sess *serverSession) readBlock(name string, f *os.File, p []byte, off int64) error {
	var read int
	var err error
	if f != nil {
		read, err = f.ReadAt(p, off)
	} else {
		//lint:allow bufown Store.ReadAt follows io.ReaderAt, which forbids retaining p
		read, err = sess.srv.cfg.Store.ReadAt(name, p, off)
	}
	if err != nil && !(errors.Is(err, io.EOF) && read == len(p)) {
		return fmt.Errorf("reading %s at %d: %w", name, off, err)
	}
	if read != len(p) {
		return fmt.Errorf("short read on %s at %d: %d of %d", name, off, read, len(p))
	}
	return nil
}

// streamWriter sends one data stream's share of a GET. Each batch the
// writer collects goes out in order: buffered payloads ride in one
// writev with their headers, and a file-backed payload goes by
// sendfile right after a writev that ends with its header.
type streamWriter struct {
	conn    net.Conn
	file    *fileSender // nil: the stream takes buffered blocks only
	stream  *Limiter
	link    *Limiter
	timeout time.Duration
	inst    *serverInstruments

	// headers holds one encoded header per batch slot. scratch is the
	// stable backing of each writev's vector; bufs is the consumable
	// copy handed to writeBatch (the write advances it, leaving
	// scratch's capacity intact).
	headers []byte
	scratch net.Buffers
	bufs    net.Buffers
}

func newStreamWriter(conn net.Conn, maxBatch int, stream, link *Limiter, timeout time.Duration, inst *serverInstruments) *streamWriter {
	return &streamWriter{
		conn:    conn,
		stream:  stream,
		link:    link,
		timeout: timeout,
		inst:    inst,
		headers: make([]byte, maxBatch*blockHeaderSize),
		scratch: make(net.Buffers, 0, 2*maxBatch),
	}
}

// write sends one batch of at most maxBatch blocks and returns the
// bytes written.
func (w *streamWriter) write(batch []queuedBlock) (int64, error) {
	var total int64
	w.scratch = w.scratch[:0]
	headers := 0
	for j, b := range batch {
		h := w.headers[j*blockHeaderSize : (j+1)*blockHeaderSize]
		encodeBlockHeader(h, b.header)
		w.scratch = append(w.scratch, h)
		headers++
		if b.buf != nil {
			w.scratch = append(w.scratch, *b.buf)
			continue
		}
		n, err := w.flush(headers)
		total += n
		if err != nil {
			return total, err
		}
		headers = 0
		n, err = w.sendFile(b.file, int64(b.header.Offset), int64(b.header.Length))
		total += n
		if err != nil {
			return total, err
		}
	}
	if headers > 0 {
		n, err := w.flush(headers)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// flush writes the pending vector, which carries the given number of
// block headers, as one writev.
func (w *streamWriter) flush(headers int) (int64, error) {
	w.bufs = w.scratch
	w.scratch = w.scratch[:0]
	n, err := writeBatch(w.conn, &w.bufs, w.stream, w.link, w.timeout)
	if err != nil {
		return n, err
	}
	w.inst.writevBatches.Inc()
	w.inst.writevBlocks.Add(int64(headers))
	return n, nil
}

// sendFile sends the n-byte payload at off of f by sendfile. Like
// writeBatch it first admits the bytes through both limiters and arms
// the rolling write deadline. A file that ends early (it shrank since
// the GET began) would leave the frame short and the client waiting
// for bytes that never come, so the rest of the frame is padded with
// zeros and the block fails: the GET ends in ERR and the stream stays
// framed for the next one.
func (w *streamWriter) sendFile(f *os.File, off, n int64) (int64, error) {
	w.stream.Wait(int(n))
	w.link.Wait(int(n))
	if w.timeout > 0 {
		if err := w.conn.SetWriteDeadline(time.Now().Add(w.timeout)); err != nil {
			return 0, err
		}
	}
	sent, err := w.file.send(f, off, n)
	if err != nil {
		return sent, err
	}
	w.inst.sendfileBlocks.Inc()
	if sent == n {
		return sent, nil
	}
	w.bufs = append(w.scratch[:0], make([]byte, n-sent))
	pad, err := writeBatch(w.conn, &w.bufs, nil, nil, w.timeout)
	if err != nil {
		return sent + pad, err
	}
	return sent + pad, fmt.Errorf("file ended at %d, inside the block at %d+%d", off+sent, off, n)
}

// writeBatch sends one batch of framed blocks to a data stream as a
// single vectored write: net.Buffers reaches a TCP connection as one
// writev. The batch total is first admitted through both limiters (nil
// means unlimited), which pace it in burst-sized installments exactly
// as they would a flat write of the same size. A positive timeout arms
// a rolling write deadline, so a peer that stops draining the socket
// turns into a timeout error instead of parking the writer forever.
// The write consumes bufs; callers keep a separate backing slice and
// pass a pointer to a consumable copy of its header, which keeps the
// call free of heap escapes.
func writeBatch(conn net.Conn, bufs *net.Buffers, stream, link *Limiter, timeout time.Duration) (int64, error) {
	var total int
	for _, b := range *bufs {
		total += len(b)
	}
	stream.Wait(total)
	link.Wait(total)
	if timeout > 0 {
		if err := conn.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
			return 0, err
		}
	}
	return bufs.WriteTo(conn)
}

func (sess *serverSession) close() {
	if !sess.closed.CompareAndSwap(false, true) {
		return
	}
	sess.ctrl.Close()
	sess.dataMu.Lock()
	for _, c := range sess.data {
		if c != nil {
			c.Close()
		}
	}
	sess.dataMu.Unlock()
}
