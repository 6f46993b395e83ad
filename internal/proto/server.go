package proto

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/didclab/eta/internal/crc32c"
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
	// BlockSize is the striping unit; DefaultBlockSize when zero, and
	// at most 8 MiB.
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
	if cfg.BlockSize > maxBlockSize {
		return nil, fmt.Errorf("proto: block size %d above the %d-byte limit", cfg.BlockSize, maxBlockSize)
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
	br := bufio.NewReaderSize(conn, maxLineLen)
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
		if err1 != nil || err2 != nil || idx < 0 || idx >= maxStreams {
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

	// writers holds one writer per data stream; serveLoop's alone.
	writers []*streamWriter

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
			if err != nil || n < 1 || n > maxStreams {
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
	if sess.closed.Load() {
		// close has run, or is waiting for dataMu after setting closed:
		// a stream stored now would never be closed.
		sess.dataMu.Unlock()
		conn.Close()
		return
	}
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
// each stream's writer running in its own goroutine so slow streams do
// not stall fast ones more than the striping requires.
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

func (sess *serverSession) serveGet(req getRequest, gsp *span.Span, doneQueue *delayQueue[string]) error {
	writers := sess.streamWriters()
	if len(writers) == 0 {
		return fmt.Errorf("no data streams attached")
	}
	cfg := &sess.srv.cfg
	blockSize := int64(cfg.blockSize())
	g := &getJob{req: req, store: cfg.Store, blockSize: blockSize, blocks: req.Length / blockSize}
	if req.Length%blockSize != 0 {
		g.blocks++
	}

	// The whole-range CRC is built by combining per-block CRCs with
	// crc32c.Combine. When the store can vouch for the file's identity
	// and the range is block-aligned, block CRCs come from (and feed)
	// the sidecar cache.
	if req.Offset%blockSize == 0 {
		if v, ok := cfg.Store.(Versioner); ok {
			if size, mtime, ok := v.Version(req.Name); ok {
				g.sidecar = sess.srv.crcSidecars.open(req.Name, size, mtime, int(blockSize))
			}
		}
	}

	// A store that hands out file handles is opened once for the whole
	// GET. A TCP stream sends each block the sidecar vouches for from
	// it by sendfile; every other block is read from it into the
	// writer's buffer, hashed and sent from there. The identity above
	// is taken first: a file replaced in between is then served under
	// the old identity, which no later serve matches, instead of filing
	// the old file's CRCs under the new one. The deferred close runs
	// after wg.Wait below, when no writer can still be sending from the
	// file.
	if o, ok := cfg.Store.(Opener); ok && req.Length > 0 {
		f, err := o.Open(req.Name)
		if err != nil {
			return fmt.Errorf("opening %s: %w", req.Name, err)
		}
		defer f.Close()
		g.file = f
	}

	// Block b goes to stream b mod len(writers). Each writer reads,
	// checksums and sends its own blocks, so no buffer changes hands.
	errs := make([]error, len(writers))
	var wg sync.WaitGroup
	for i, w := range writers {
		w.stream = NewLimiter(cfg.PerStreamRate)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ssp := gsp.Child(span.NameServerStream, "stream", i)
			defer ssp.End()
			n, err := w.serve(g, int64(i), int64(len(writers)))
			ssp.AddBytes(n)
			errs[i] = err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	var crcState uint32
	for b := int64(0); b < g.blocks; b++ {
		w := writers[b%int64(len(writers))]
		_, n := g.block(b)
		crcState = crc32c.Combine(crcState, w.crcs[b/int64(len(writers))], n)
	}
	sess.srv.inst.requestsServed.Inc()
	sess.srv.inst.bytesServed.Add(req.Length)
	doneQueue.Push(fmt.Sprintf("%s %d %d\n", respDone, req.ID, crcState))
	return nil
}

// streamWriters returns one writer per attached data stream. A writer
// lives as long as its stream: later GETs reuse it, buffers included,
// and only a stream re-attached under the same index gets a new one.
// Only serveLoop calls it, so sess.writers needs no lock.
func (sess *serverSession) streamWriters() []*streamWriter {
	streams := sess.streams()
	for i, c := range streams {
		if i < len(sess.writers) && sess.writers[i].conn == c {
			continue
		}
		w := newStreamWriter(c, sess.srv.link, sess.srv.cfg.StallTimeout, &sess.srv.inst)
		if i < len(sess.writers) {
			sess.writers[i] = w
		} else {
			sess.writers = append(sess.writers, w)
		}
	}
	sess.writers = sess.writers[:len(streams)]
	return sess.writers
}

// getJob is one GET as its stream writers share it. Writers only read
// it, apart from the failed flag.
type getJob struct {
	req       getRequest
	store     Store
	file      *os.File // the GET's open handle; nil: read through store.ReadAt
	sidecar   *crcSidecar
	blockSize int64
	blocks    int64
	// failed stops the other writers once one has failed: the GET ends
	// in ERR, so their remaining blocks would be wasted.
	failed atomic.Bool
}

// block returns the file offset and length of block b.
func (g *getJob) block(b int64) (off, n int64) {
	off = b * g.blockSize
	return g.req.Offset + off, min(g.blockSize, g.req.Length-off)
}

// fail marks g failed, so its other writers stop, and returns err.
func (g *getJob) fail(err error) error {
	g.failed.Store(true)
	return err
}

// readBlock fills p with the file's bytes at off: from the GET's own
// handle when the store gave one, through Store.ReadAt otherwise.
func readBlock(store Store, name string, f *os.File, p []byte, off int64) error {
	var read int
	var err error
	if f != nil {
		read, err = f.ReadAt(p, off)
	} else {
		read, err = store.ReadAt(name, p, off)
	}
	if err != nil && !(errors.Is(err, io.EOF) && read == len(p)) {
		return fmt.Errorf("reading %s at %d: %w", name, off, err)
	}
	if read != len(p) {
		return fmt.Errorf("short read on %s at %d: %d of %d", name, off, read, len(p))
	}
	return nil
}

// streamWriter owns one data stream for the session: it reads,
// checksums and sends that stream's share of every GET, one block at a
// time. A block the sidecar vouches for, of a GET with an open file,
// goes by sendfile right after a writev of its header; any other block
// is read into the writer's one buffer, hashed unless its CRC is
// cached, and sent with its header in one writev. The buffer never
// leaves the writer.
type streamWriter struct {
	conn    net.Conn
	file    *fileSender // nil: every block is read into payload
	stream  *Limiter    // the current GET's per-stream limiter
	link    *Limiter
	timeout time.Duration
	inst    *serverInstruments

	// crcs holds the CRC of each block the writer sent in the current
	// GET, in order; serveGet combines every writer's once all have
	// finished. It grows only with blocks actually read or sent, never
	// with the length a GET asks for.
	crcs []uint32
	// payload is the block buffer, allocated on first use and kept for
	// the stream's life; header is the encoded header of the block in
	// flight. scratch is the stable backing of each writev's vector;
	// bufs is the consumable copy handed to writeBatch (the write
	// advances it, leaving scratch's capacity intact).
	payload []byte
	header  [blockHeaderSize]byte
	scratch net.Buffers
	bufs    net.Buffers
}

// newStreamWriter returns the writer for conn. Only a TCP conn can
// send blocks by sendfile; any other (a net.Pipe, a wrapped conn) reads
// every block into the writer's buffer.
func newStreamWriter(conn net.Conn, link *Limiter, timeout time.Duration, inst *serverInstruments) *streamWriter {
	w := &streamWriter{
		conn:    conn,
		link:    link,
		timeout: timeout,
		inst:    inst,
		scratch: make(net.Buffers, 0, 2),
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		w.file = newFileSender(tc)
	}
	return w
}

// serve sends blocks first, first+stride, ... of g in order and returns
// the bytes written. It stops early, without an error of its own, once
// another writer of g has failed. A block read for hashing is sent from
// the same buffer, so the CRC it files is the CRC of the bytes sent.
func (w *streamWriter) serve(g *getJob, first, stride int64) (int64, error) {
	w.crcs = w.crcs[:0]
	var total int64
	for b := first; b < g.blocks && !g.failed.Load(); b += stride {
		off, n := g.block(b)
		crc, cached := w.lookup(g, off, n)
		byFile := cached && g.file != nil && w.file != nil
		encodeBlockHeader(w.header[:], blockHeader{ReqID: g.req.ID, Offset: uint64(off), Length: uint32(n)})
		w.scratch = append(w.scratch[:0], w.header[:])
		if !byFile {
			if int64(cap(w.payload)) < n {
				w.payload = make([]byte, g.blockSize)
			}
			p := w.payload[:n]
			if err := readBlock(g.store, g.req.Name, g.file, p, off); err != nil {
				return total, g.fail(err)
			}
			if !cached {
				crc = w.hash(g, p, off)
			}
			w.scratch = append(w.scratch, p)
		}
		sent, err := w.flush()
		total += sent
		if err == nil && byFile {
			sent, err = w.sendFile(g.file, off, n)
			total += sent
		}
		if err != nil {
			return total, g.fail(err)
		}
		w.crcs = append(w.crcs, crc)
	}
	return total, nil
}

// lookup returns the sidecar's CRC of the block at [off, off+n), if it
// holds one, and counts the hit.
func (w *streamWriter) lookup(g *getJob, off, n int64) (uint32, bool) {
	crc, cached := g.sidecar.lookup(off, n)
	if cached {
		w.inst.crcCacheHits.Inc()
	}
	return crc, cached
}

// hash returns the CRC of p, the block at off, and files it in the
// sidecar, which keeps it only when the block is exactly one tile.
func (w *streamWriter) hash(g *getJob, p []byte, off int64) uint32 {
	crc := crc32c.Checksum(p)
	if g.sidecar != nil {
		g.sidecar.store(off, int64(len(p)), crc)
		w.inst.crcCacheMisses.Inc()
	}
	return crc
}

// flush writes the pending vector, which carries one block header, as
// one writev.
func (w *streamWriter) flush() (int64, error) {
	w.bufs = w.scratch
	w.scratch = w.scratch[:0]
	n, err := writeBatch(w.conn, &w.bufs, w.stream, w.link, w.timeout)
	if err != nil {
		return n, err
	}
	w.inst.writevBatches.Inc()
	w.inst.writevBlocks.Inc()
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

// writeBatch sends a framed block's header, and its payload when the
// writer holds it, to a data stream as a single vectored write:
// net.Buffers reaches a TCP connection as one writev. The total is
// first admitted through both limiters (nil means unlimited), which
// pace it in burst-sized installments exactly as they would a flat
// write of the same size. A positive timeout arms
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
