package proto

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/obs"
	"github.com/didclab/eta/internal/units"
)

// memSink keeps every file in memory at its full size, so a ranged
// fetch can be compared against the same range of the source.
type memSink struct {
	mu    sync.Mutex
	files map[string][]byte
	size  int64
}

func (s *memSink) WriteAt(name string, p []byte, off int64) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.files[name]
	if b == nil {
		b = make([]byte, s.size)
		s.files[name] = b
	}
	return copy(b[off:], p), nil
}

func (s *memSink) Close(string) error { return nil }

// countingStore counts the opens a DirStore serves.
type countingStore struct {
	DirStore
	opens atomic.Int64
}

func (s *countingStore) Open(name string) (*os.File, error) {
	s.opens.Add(1)
	return s.DirStore.Open(name)
}

// writeSource writes size bytes of distinct content as dir/name.
func writeSource(t *testing.T, dir, name string, size int) []byte {
	t.Helper()
	content := make([]byte, size)
	FillSynth(name, 0, content)
	if err := os.WriteFile(filepath.Join(dir, name), content, 0o644); err != nil {
		t.Fatal(err)
	}
	return content
}

// A DirStore serve opens the file once per GET: a cold one reads,
// hashes and sends each block from the writer's buffer and fills the
// sidecar, a warm one takes every CRC from it and sends every block by
// sendfile, and an unaligned range hashes without caching. Every
// block's header goes by writev. All deliver the same bytes under a
// DONE CRC the client verifies, shaped or not, through the tail block.
func TestSendfileServeMatchesWritev(t *testing.T) {
	const blockSize = 64 * 1024
	const size = 3*blockSize + 1000
	for _, shaped := range []bool{false, true} {
		dir := t.TempDir()
		content := writeSource(t, dir, "data.bin", size)
		store := &countingStore{DirStore: DirStore{Root: dir}}
		reg := obs.NewRegistry()
		cfg := ServerConfig{Store: store, Metrics: reg, BlockSize: blockSize, Logf: t.Logf}
		if shaped {
			cfg.PerStreamRate = 2 * units.Gbps
		}
		srv := startServer(t, cfg)
		client := &Client{Addr: srv.Addr(), VerifyChecksums: true, BlockSize: blockSize}
		ch, err := client.OpenChannel(2)
		if err != nil {
			t.Fatal(err)
		}
		sendfiles := reg.Counter("server_sendfile_blocks")
		writevBlocks := reg.Counter("server_writev_blocks")
		hits := reg.Counter("server_crc_cache_hits")
		misses := reg.Counter("server_crc_cache_misses")
		file := dataset.File{Name: "data.bin", Size: size}
		fetch := func(step string, off units.Bytes, wantHits, wantMisses int64) {
			t.Helper()
			sink := &memSink{files: map[string][]byte{}, size: size}
			opens, sf, wv := store.opens.Load(), sendfiles.Value(), writevBlocks.Value()
			h, m := hits.Value(), misses.Value()
			if _, err := ch.FetchRanges([]FileRange{{File: file, Offset: off}}, 1, sink); err != nil {
				t.Fatalf("shaped=%v %s: %v", shaped, step, err)
			}
			if got := sink.files["data.bin"]; !bytes.Equal(got[off:], content[off:]) {
				t.Errorf("shaped=%v %s: content differs from source", shaped, step)
			}
			blocks := (int64(size-off) + blockSize - 1) / blockSize
			// Exactly the blocks the sidecar vouches for go by sendfile.
			if got := sendfiles.Value() - sf; got != wantHits {
				t.Errorf("shaped=%v %s: %d sendfile blocks, want %d", shaped, step, got, wantHits)
			}
			if got := writevBlocks.Value() - wv; got != blocks {
				t.Errorf("shaped=%v %s: %d block headers went by writev, want %d", shaped, step, got, blocks)
			}
			if gotH, gotM := hits.Value()-h, misses.Value()-m; gotH != wantHits || gotM != wantMisses {
				t.Errorf("shaped=%v %s: %d CRC hits and %d misses, want %d and %d", shaped, step, gotH, gotM, wantHits, wantMisses)
			}
			if got := store.opens.Load() - opens; got != 1 {
				t.Errorf("shaped=%v %s: %d opens for one GET, want 1", shaped, step, got)
			}
		}
		fetch("cold", 0, 0, 4)
		fetch("warm", 0, 4, 0)
		fetch("warm aligned range", blockSize, 3, 0)
		// Unaligned ranges never use the sidecar: every block is hashed
		// and none is filed.
		fetch("unaligned range", blockSize+100, 0, 0)
		ch.Close()
	}
}

// truncatingStore shrinks a file to just past its middle once the
// server has taken its identity. With atVersion it shrinks in Version,
// so a warm sidecar still vouches for blocks that are partly or wholly
// gone by the time they are sent; with atOpen it shrinks after Open,
// before a cold GET has read any block.
type truncatingStore struct {
	DirStore
	atVersion, atOpen atomic.Bool
}

func (s *truncatingStore) shrink(name string, size int64) error {
	return os.Truncate(filepath.Join(s.Root, name), size/2+1000)
}

func (s *truncatingStore) Version(name string) (int64, int64, bool) {
	size, tok, ok := s.DirStore.Version(name)
	if ok && s.atVersion.Load() {
		if err := s.shrink(name, size); err != nil {
			return 0, 0, false
		}
	}
	return size, tok, ok
}

func (s *truncatingStore) Open(name string) (*os.File, error) {
	f, err := s.DirStore.Open(name)
	if err != nil || !s.atOpen.Load() {
		return f, err
	}
	info, err := f.Stat()
	if err == nil {
		err = s.shrink(name, info.Size())
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// A file that shrinks under a serve fails the GET instead of leaving a
// short frame that would hang the client, and the stream stays framed
// for the next GET on the channel. Warm, the sidecar vouches for the
// lost blocks and sendfile comes up short; cold, the read that would
// hash a lost block fails before its header goes out, and the sidecar
// files no CRC for it.
func TestSendfileTruncatedFileFailsGet(t *testing.T) {
	const blockSize = 64 * 1024
	dir := t.TempDir()
	writeSource(t, dir, "shrinks.bin", 4*blockSize)
	writeSource(t, dir, "cold.bin", 4*blockSize)
	steady := writeSource(t, dir, "steady.bin", 2*blockSize+10)
	store := &truncatingStore{DirStore: DirStore{Root: dir}}
	reg := obs.NewRegistry()
	srv := startServer(t, ServerConfig{Store: store, Metrics: reg, BlockSize: blockSize, Logf: t.Logf})
	// No client stall timeout: a short frame would block the stream
	// reader for good.
	client := &Client{Addr: srv.Addr(), VerifyChecksums: true, BlockSize: blockSize}
	ch, err := client.OpenChannel(2)
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	fetchFails := func(step, name string) {
		t.Helper()
		done := make(chan error, 1)
		go func() {
			_, err := ch.Fetch([]dataset.File{{Name: name, Size: 4 * blockSize}}, 1, NewVerifySink())
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("%s: fetch of a file truncated mid-serve succeeded", step)
			}
			t.Logf("%s truncated serve: %v", step, err)
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: fetch of a file truncated mid-serve hung", step)
		}
	}
	fetchSteady := func(step string) {
		t.Helper()
		sink := &memSink{files: map[string][]byte{}, size: int64(len(steady))}
		if _, err := ch.Fetch([]dataset.File{{Name: "steady.bin", Size: units.Bytes(len(steady))}}, 1, sink); err != nil {
			t.Fatalf("%s: channel unusable after the failed GET: %v", step, err)
		}
		if !bytes.Equal(sink.files["steady.bin"], steady) {
			t.Errorf("%s: content after the failed GET differs from source", step)
		}
	}

	if _, err := ch.Fetch([]dataset.File{{Name: "shrinks.bin", Size: 4 * blockSize}}, 1, NewVerifySink()); err != nil {
		t.Fatal(err)
	}
	hits := reg.Counter("server_crc_cache_hits")
	warmHits := hits.Value()
	store.atVersion.Store(true)
	fetchFails("warm", "shrinks.bin")
	store.atVersion.Store(false)
	if hits.Value() == warmHits || reg.Counter("server_sendfile_blocks").Value() == 0 {
		t.Error("the warm truncated serve never sent a cached block by sendfile")
	}
	fetchSteady("warm")

	store.atOpen.Store(true)
	fetchFails("cold", "cold.bin")
	store.atOpen.Store(false)
	// The sidecar keeps the identity taken before the file shrank; the
	// tiles past the new end, partly or wholly lost, were never read
	// in full.
	srv.crcSidecars.mu.Lock()
	e := srv.crcSidecars.entries["cold.bin"]
	if e == nil {
		t.Error("cold: no sidecar for the truncated file")
	} else if e.have[2] || e.have[3] {
		t.Errorf("cold: the sidecar holds a CRC for a tile that was not read: have %v", e.have)
	}
	srv.crcSidecars.mu.Unlock()
	fetchSteady("cold")
}

// sparseFile creates a size-byte file of zeros without writing them.
func sparseFile(t *testing.T, size int64) *os.File {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "sparse"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	if err := f.Truncate(size); err != nil {
		t.Fatal(err)
	}
	return f
}

// The sendfile path honours the rolling write deadline: a peer that
// stops reading turns the send into a timeout error (the sendfile
// counterpart of TestDeadlineWriterTimesOut).
func TestSendfileTimesOut(t *testing.T) {
	c1, c2 := tcpPair(t)
	// Small socket buffers, so a few MiB fill them for certain.
	if err := c1.(*net.TCPConn).SetWriteBuffer(16 * 1024); err != nil {
		t.Fatal(err)
	}
	if err := c2.(*net.TCPConn).SetReadBuffer(16 * 1024); err != nil {
		t.Fatal(err)
	}
	f := sparseFile(t, 8<<20)
	w := newStreamWriter(c1, nil, 100*time.Millisecond, &serverInstruments{})
	if w.file == nil {
		t.Fatal("no sendfile for a TCP conn")
	}
	start := time.Now()
	_, err := w.sendFile(f, 0, 8<<20)
	if err == nil {
		t.Fatal("sendfile to a never-reading peer succeeded")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Errorf("want a timeout error, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("sendfile stall took %v to surface", elapsed)
	}
}

// Only TCP streams take file-backed blocks.
func TestFileSenderNeedsTCP(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	if newStreamWriter(c1, nil, 0, &serverInstruments{}).file != nil {
		t.Error("a net.Pipe got a sendfile sender")
	}
}

// A stream writer allocates nothing per block once its first GET has
// given it its buffer, on every route. A GET without a file and a cold
// file-backed GET read every block and send it with its header in one
// writev; a warm GET, here with every other block's CRC in the
// sidecar, sends those blocks by sendfile after a writev of the header
// and reads the rest.
func TestSendfileWarmPathZeroAlloc(t *testing.T) {
	w, r := tcpPair(t)
	go io.Copy(io.Discard, r)
	const blockSize = 64 * 1024
	const blocks = 19
	f := sparseFile(t, blocks*blockSize)
	synth := NewSynthStore(dataset.Dataset{Files: []dataset.File{{Name: "sparse", Size: blocks * blockSize}}})
	reg := obs.NewRegistry()
	inst := serverInstruments{
		writevBatches:  reg.Counter("server_writev_batches"),
		sendfileBlocks: reg.Counter("server_sendfile_blocks"),
		crcCacheHits:   reg.Counter("server_crc_cache_hits"),
		crcCacheMisses: reg.Counter("server_crc_cache_misses"),
	}
	sw := newStreamWriter(w, nil, time.Second, &inst)
	sw.stream = NewLimiter(0)
	job := func(f *os.File, sidecar *crcSidecar) *getJob {
		return &getJob{
			req:       getRequest{ID: 1, Name: "sparse", Length: blocks * blockSize},
			store:     synth,
			file:      f,
			sidecar:   sidecar,
			blockSize: blockSize,
			blocks:    blocks,
		}
	}
	// run serves g once, which may allocate the writer's buffer, and
	// then 21 more times (AllocsPerRun adds a warm-up run), each after
	// prepare. It checks the 21 allocate nothing and that they made the
	// given numbers of writev batches and sendfile blocks.
	run := func(step string, g *getJob, prepare func(), wantBatches, wantSendfiles int64) {
		t.Helper()
		serve := func() {
			prepare()
			if n, err := sw.serve(g, 0, 1); err != nil || n != blocks*(blockHeaderSize+blockSize) {
				t.Fatalf("%s: serve wrote %d bytes, err %v", step, n, err)
			}
		}
		serve()
		batches, sendfiles := inst.writevBatches.Value(), inst.sendfileBlocks.Value()
		if allocs := testing.AllocsPerRun(20, serve); allocs != 0 {
			t.Errorf("%s: a GET of %d blocks allocates %.1f times, want 0", step, blocks, allocs)
		}
		if got := inst.writevBatches.Value() - batches; got != wantBatches {
			t.Errorf("%s: 21 GETs made %d writev batches, want %d", step, got, wantBatches)
		}
		if got := inst.sendfileBlocks.Value() - sendfiles; got != wantSendfiles {
			t.Errorf("%s: 21 GETs sent %d blocks by sendfile, want %d", step, got, wantSendfiles)
		}
	}

	// One writev per block on every route.
	run("no file", job(nil, nil), func() {}, 21*blocks, 0)
	run("cold", job(f, nil), func() {}, 21*blocks, 0)

	// The sidecar holds every odd block's CRC. Each serve caches the
	// even ones it reads, so they are forgotten again before the next.
	sc := newCRCCache(0).open("sparse", blocks*blockSize, 0, blockSize)
	for b := int64(1); b < blocks; b += 2 {
		sc.store(b*blockSize, blockSize, 0)
	}
	forgetEven := func() {
		sc.cache.mu.Lock()
		for b := 0; b < blocks; b += 2 {
			sc.entry.have[b] = false
		}
		sc.cache.mu.Unlock()
	}
	hits, misses := inst.crcCacheHits.Value(), inst.crcCacheMisses.Value()
	run("warm", job(f, sc), forgetEven, 21*blocks, 21*(blocks/2))
	if got, want := inst.crcCacheHits.Value()-hits, int64(22*(blocks/2)); got != want {
		t.Errorf("warm GETs took %d CRCs from the sidecar, want %d", got, want)
	}
	if got, want := inst.crcCacheMisses.Value()-misses, int64(22*(blocks-blocks/2)); got != want {
		t.Errorf("warm GETs hashed %d blocks, want %d", got, want)
	}
}

// A stream writer holds one block of payload at most on every route: a
// cold GET, which reads, hashes and sends every block, allocates one
// block buffer whether it reads from the GET's file, from a SynthStore
// without one, or writes to a conn that cannot take sendfile. Each
// leaves every tile's CRC in the sidecar.
func TestServeFileAllocatesOneBlockBuffer(t *testing.T) {
	// drain reads r until it fails.
	drain := func(r net.Conn) {
		buf := make([]byte, 64*1024)
		for {
			if _, err := r.Read(buf); err != nil {
				return
			}
		}
	}
	tcpW, tcpR := tcpPair(t)
	go drain(tcpR)
	pipeW, pipeR := net.Pipe()
	t.Cleanup(func() { pipeW.Close(); pipeR.Close() })
	go drain(pipeR)

	const blockSize = 64 * 1024
	const blocks = 19
	// The writer's allocations besides its block buffer: its vector,
	// the sender, the CRC list and the sidecar's tile tables.
	const slack = 8 * 1024
	f := sparseFile(t, blocks*blockSize)
	synth := NewSynthStore(dataset.Dataset{Files: []dataset.File{{Name: "sparse", Size: blocks * blockSize}}})
	run := func(conn net.Conn, store Store, file *os.File) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		sw := newStreamWriter(conn, nil, time.Second, &serverInstruments{})
		sw.stream = NewLimiter(0)
		g := &getJob{
			req:       getRequest{ID: 1, Name: "sparse", Length: blocks * blockSize},
			store:     store,
			file:      file,
			sidecar:   newCRCCache(0).open("sparse", blocks*blockSize, 0, blockSize),
			blockSize: blockSize,
			blocks:    blocks,
		}
		n, err := sw.serve(g, 0, 1)
		runtime.ReadMemStats(&after)
		if err != nil || n != blocks*(blockHeaderSize+blockSize) {
			t.Fatalf("serve wrote %d bytes, err %v", n, err)
		}
		for b := int64(0); b < blocks; b++ {
			if _, ok := g.sidecar.lookup(b*blockSize, blockSize); !ok {
				t.Fatalf("block %d's CRC is not in the sidecar after a cold GET", b)
			}
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, tc := range []struct {
		name  string
		conn  net.Conn
		store Store
		file  *os.File
	}{
		{"file over TCP", tcpW, nil, f},
		{"SynthStore without a file", tcpW, synth, nil},
		{"file over net.Pipe", pipeW, nil, f},
	} {
		// MemStats also counts what other goroutines allocate
		// meanwhile, which only ever adds: the fewest of a few runs
		// bounds the writer's own allocations.
		least := uint64(math.MaxUint64)
		for range 5 {
			least = min(least, run(tc.conn, tc.store, tc.file))
		}
		if bound := uint64(blockSize + slack); least > bound {
			t.Errorf("%s: a cold %d-block GET allocated %d bytes, bound one %d-byte block + %d", tc.name, blocks, least, blockSize, slack)
		}
	}
}

// A rewrite that keeps the size and restores the mtime, as cp -p or
// rsync -t do, must still invalidate the CRC sidecar: the ctime the
// rewrite moved is part of the version token.
func TestDirStoreRewriteWithRestoredMtime(t *testing.T) {
	dir := t.TempDir()
	const size = 3*64*1024 + 7
	content := writeSource(t, dir, "f.bin", size)
	path := filepath.Join(dir, "f.bin")
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	store := DirStore{Root: dir}
	srv := startServer(t, ServerConfig{Store: store, BlockSize: 64 * 1024, Logf: t.Logf})
	client := &Client{Addr: srv.Addr(), VerifyChecksums: true}
	ch, err := client.OpenChannel(2)
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	files := []dataset.File{{Name: "f.bin", Size: size}}
	if _, err := ch.Fetch(files, 1, NewDirSink(t.TempDir())); err != nil {
		t.Fatal(err)
	}
	_, tok0, _ := store.Version("f.bin")

	content[size/2] ^= 0x01
	// The ctime clock may tick coarser than this test runs; rewrite
	// until it has moved, or give up and let the fetch below decide.
	for deadline := time.Now().Add(2 * time.Second); ; {
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(path, info.ModTime(), info.ModTime()); err != nil {
			t.Fatal(err)
		}
		if _, tok, _ := store.Version("f.bin"); tok != tok0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	dst := t.TempDir()
	if _, err := ch.Fetch(files, 1, NewDirSink(dst)); err != nil {
		t.Fatalf("refetch after a rewrite with restored mtime: %v", err)
	}
	got, err := os.ReadFile(filepath.Join(dst, "f.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Error("refetch delivered the old content")
	}
}

// BenchmarkServe measures the server's serve path: one fetch of
// 4 × 32 MiB over loopback TCP on 2 streams, with VerifyChecksums. cold
// starts a fresh DirStore server for every fetch, so every block is
// read, hashed and sent from the writer's buffer; warm fetches from one
// DirStore server whose sidecar already holds every CRC, so every block
// goes by sendfile and nothing is read; synth fetches from one
// SynthStore server (no Opener, xferd's default store), which generates
// every block into the writer's buffer and takes its CRC from the
// warm sidecar. Besides MB/s and B/op (server and client share the
// process) it reports the process CPU time per GB fetched and the
// server's writev calls per block.
func BenchmarkServe(b *testing.B) {
	const files, size = 4, 32 << 20
	dir := b.TempDir()
	var ds []dataset.File
	buf := make([]byte, 1<<20)
	for i := range files {
		name := "f" + strconv.Itoa(i)
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			b.Fatal(err)
		}
		for off := int64(0); off < size; off += int64(len(buf)) {
			FillSynth(name, off, buf)
			if _, err := f.Write(buf); err != nil {
				f.Close()
				b.Fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
		ds = append(ds, dataset.File{Name: name, Size: size})
	}
	reg := obs.NewRegistry()
	start := func(b *testing.B, store Store) (*Server, *Channel) {
		srv, err := ListenAndServe("127.0.0.1:0", ServerConfig{Store: store, Metrics: reg})
		if err != nil {
			b.Fatal(err)
		}
		ch, err := (&Client{Addr: srv.Addr(), VerifyChecksums: true}).OpenChannel(2)
		if err != nil {
			srv.Close()
			b.Fatal(err)
		}
		return srv, ch
	}
	writevCalls, writevBlocks := reg.Counter("server_writev_batches"), reg.Counter("server_writev_blocks")
	var cpu time.Duration
	var writevs, blocks int64
	fetch := func(ch *Channel) error {
		c0, w0, b0 := processCPU(), writevCalls.Value(), writevBlocks.Value()
		_, err := ch.Fetch(ds, 2, discardSink{})
		cpu += processCPU() - c0
		writevs += writevCalls.Value() - w0
		blocks += writevBlocks.Value() - b0
		return err
	}
	reset := func(b *testing.B) {
		cpu, writevs, blocks = 0, 0, 0
		b.SetBytes(files * size)
		b.ReportAllocs()
		b.ResetTimer()
	}
	report := func(b *testing.B) {
		gb := float64(b.N) * files * size / 1e9
		b.ReportMetric(cpu.Seconds()/gb, "cpu_s/GB")
		b.ReportMetric(float64(writevs)/float64(blocks), "writevs/block")
	}
	// steady fetches b.N times from one server on store, after one
	// untimed fetch that fills its sidecar.
	steady := func(b *testing.B, store Store) {
		srv, ch := start(b, store)
		defer srv.Close()
		defer ch.Close()
		if err := fetch(ch); err != nil {
			b.Fatal(err)
		}
		reset(b)
		for i := 0; i < b.N; i++ {
			if err := fetch(ch); err != nil {
				b.Fatal(err)
			}
		}
		report(b)
	}

	b.Run("cold", func(b *testing.B) {
		reset(b)
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			srv, ch := start(b, DirStore{Root: dir})
			b.StartTimer()
			err := fetch(ch)
			b.StopTimer()
			ch.Close()
			srv.Close()
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		report(b)
	})
	b.Run("warm", func(b *testing.B) { steady(b, DirStore{Root: dir}) })
	b.Run("synth", func(b *testing.B) { steady(b, NewSynthStore(dataset.Dataset{Files: ds})) })
}

// processCPU returns the CPU time this process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
