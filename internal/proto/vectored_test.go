package proto

import (
	"bytes"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/obs"
	"github.com/didclab/eta/internal/units"
)

// tcpPair returns both ends of a loopback TCP connection, closed when
// the test ends.
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	c1, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c2 := <-accepted
	if c2 == nil {
		c1.Close()
		t.Fatal("accept failed")
	}
	t.Cleanup(func() {
		c1.Close()
		c2.Close()
	})
	return c1, c2
}

func TestWriteBatchVectoredPassThrough(t *testing.T) {
	// The whole batch reaches the peer intact and is consumed, through
	// nil and unlimited limiters alike, with and without a deadline. On
	// TCP net.Buffers goes down as one writev; a net.Pipe takes the
	// per-buffer fallback of net.Buffers.WriteTo and must carry the
	// same bytes.
	pipeW, pipeR := net.Pipe()
	defer pipeW.Close()
	defer pipeR.Close()
	tcpW, tcpR := tcpPair(t)
	for _, tc := range []struct {
		name    string
		w, r    net.Conn
		timeout time.Duration
	}{
		{"tcp", tcpW, tcpR, 0},
		{"tcp-deadline", tcpW, tcpR, time.Second},
		{"pipe", pipeW, pipeR, 0},
	} {
		want := "header+payload"
		got := make(chan string, 1)
		go func() {
			buf := make([]byte, len(want))
			io.ReadFull(tc.r, buf)
			got <- string(buf)
		}()
		bufs := net.Buffers{[]byte("head"), []byte("er+"), []byte("payload")}
		n, err := writeBatch(tc.w, &bufs, NewLimiter(0), nil, tc.timeout)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n != int64(len(want)) || len(bufs) != 0 {
			t.Errorf("%s: wrote %d bytes leaving %d buffers, want %d and 0", tc.name, n, len(bufs), len(want))
		}
		if s := <-got; s != want {
			t.Errorf("%s: peer read %q, want %q", tc.name, s, want)
		}
	}
}

func TestWriteBatchWaitsForBatchTotal(t *testing.T) {
	// Each limiter admits the batch total before the write: with the
	// sleeps recorded instead of taken, the deficit each one waits out
	// is the total minus its initial burst.
	w, r := tcpPair(t)
	go io.Copy(io.Discard, r)
	const bps = 1e6
	var slept [2]time.Duration
	stream, link := NewLimiter(units.Rate(8*bps)), NewLimiter(units.Rate(8*bps))
	stream.sleep = func(d time.Duration) { slept[0] += d }
	link.sleep = func(d time.Duration) { slept[1] += d }
	bufs := net.Buffers{make([]byte, blockHeaderSize), make([]byte, 100_000), make([]byte, 100_000)}
	total := blockHeaderSize + 200_000
	if _, err := writeBatch(w, &bufs, stream, link, 0); err != nil {
		t.Fatal(err)
	}
	want := time.Duration(float64(total-64*1024) / bps * float64(time.Second))
	for i, d := range slept {
		if d < want*95/100 || d > want {
			t.Errorf("limiter %d waited %v, want ~%v", i, d, want)
		}
	}
}

func TestWriteBatchZeroAlloc(t *testing.T) {
	w, r := tcpPair(t)
	go io.Copy(io.Discard, r)
	stream := NewLimiter(0)
	payload := make([]byte, 1024)
	header := make([]byte, blockHeaderSize)
	scratch := make(net.Buffers, 0, 2)
	var bufs net.Buffers
	allocs := testing.AllocsPerRun(100, func() {
		scratch = append(scratch[:0], header, payload)
		bufs = scratch
		if _, err := writeBatch(w, &bufs, stream, nil, time.Second); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("writeBatch allocates %.1f times per call, want 0", allocs)
	}
}

func TestCollectBatch(t *testing.T) {
	mkq := func(n int) chan queuedBlock {
		q := make(chan queuedBlock, 16)
		for i := 0; i < n; i++ {
			q <- queuedBlock{header: blockHeader{ReqID: uint32(i)}}
		}
		return q
	}

	// Backlog is drained without blocking, capped at max.
	q := mkq(5)
	batch, open := collectBatch(q, nil, 3)
	if !open || len(batch) != 3 {
		t.Errorf("backlog drain: got %d blocks open=%v, want 3 true", len(batch), open)
	}
	for i, b := range batch {
		if b.header.ReqID != uint32(i) {
			t.Errorf("batch[%d] = req %d, want %d (order lost)", i, b.header.ReqID, i)
		}
	}
	// The rest of the backlog is still there for the next call.
	batch, open = collectBatch(q, batch, 3)
	if !open || len(batch) != 2 {
		t.Errorf("second drain: got %d blocks open=%v, want 2 true", len(batch), open)
	}

	// A close observed mid-drain still hands back the gathered batch.
	q = mkq(2)
	close(q)
	batch, open = collectBatch(q, batch, 8)
	if open || len(batch) != 2 {
		t.Errorf("close mid-drain: got %d blocks open=%v, want 2 false", len(batch), open)
	}

	// Closed and empty terminates.
	batch, open = collectBatch(q, batch, 8)
	if open || len(batch) != 0 {
		t.Errorf("closed empty: got %d blocks open=%v, want 0 false", len(batch), open)
	}
}

func TestVectoredFetchCountsBatches(t *testing.T) {
	// An unshaped loopback transfer must ship every block through the
	// vectored path: blocks written == blocks served, and each batch is
	// at least one block (so batches <= blocks).
	ds := dataset.NewGenerator(11).Uniform(4, 2*units.MB)
	reg := obs.NewRegistry()
	srv := synthServer(t, ds, func(c *ServerConfig) {
		c.Metrics = reg
		c.BlockSize = 128 * 1024
	})
	client := &Client{Addr: srv.Addr(), VerifyChecksums: true}
	ch, err := client.OpenChannel(4)
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	sink := NewVerifySink()
	if _, err := ch.Fetch(ds.Files, 2, sink); err != nil {
		t.Fatal(err)
	}
	if bad := sink.Corrupt(); len(bad) > 0 {
		t.Errorf("vectored transfer corrupted: %v", bad)
	}
	wantBlocks := int64(0)
	for _, f := range ds.Files {
		wantBlocks += (int64(f.Size) + 128*1024 - 1) / (128 * 1024)
	}
	batches := reg.Counter("server_writev_batches").Value()
	blocks := reg.Counter("server_writev_blocks").Value()
	if blocks != wantBlocks {
		t.Errorf("writev_blocks = %d, want %d", blocks, wantBlocks)
	}
	if batches == 0 || batches > blocks {
		t.Errorf("writev_batches = %d, want in [1, %d]", batches, blocks)
	}
}

func TestCRCCacheHitsAndInvalidation(t *testing.T) {
	srcDir := t.TempDir()
	dstDir := t.TempDir()
	// Two full blocks plus a tail, so the sidecar holds 3 tiles.
	const blockSize = 64 * 1024
	content := make([]byte, 2*blockSize+1000)
	for i := range content {
		content[i] = byte(i * 7)
	}
	path := filepath.Join(srcDir, "data.bin")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	srv := startServer(t, ServerConfig{
		Store:     DirStore{Root: srcDir},
		Metrics:   reg,
		BlockSize: blockSize,
		Logf:      t.Logf,
	})
	client := &Client{Addr: srv.Addr(), VerifyChecksums: true}
	ch, err := client.OpenChannel(2)
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()

	hits := reg.Counter("server_crc_cache_hits")
	misses := reg.Counter("server_crc_cache_misses")
	fetch := func(dir string) {
		t.Helper()
		files, err := srv.cfg.Store.List()
		if err != nil {
			t.Fatal(err)
		}
		sink := NewDirSink(dir)
		if _, err := ch.Fetch(files, 2, sink); err != nil {
			t.Fatal(err)
		}
	}

	fetch(dstDir)
	if h, m := hits.Value(), misses.Value(); h != 0 || m != 3 {
		t.Errorf("first serve: hits=%d misses=%d, want 0/3", h, m)
	}
	got, err := os.ReadFile(filepath.Join(dstDir, "data.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Error("first fetch content mismatch")
	}

	// Unchanged file: the repeat serve comes entirely from the sidecar.
	fetch(t.TempDir())
	if h, m := hits.Value(), misses.Value(); h != 3 || m != 3 {
		t.Errorf("repeat serve: hits=%d misses=%d, want 3/3", h, m)
	}

	// Same size, different content and mtime: the sidecar must be
	// invalidated, the serve re-hashed, and the data still correct
	// end-to-end (VerifyChecksums would catch a stale CRC).
	for i := range content {
		content[i] ^= 0xFF
	}
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, time.Now(), time.Now().Add(2*time.Second)); err != nil {
		t.Fatal(err)
	}
	dstDir2 := t.TempDir()
	fetch(dstDir2)
	if h, m := hits.Value(), misses.Value(); h != 3 || m != 6 {
		t.Errorf("post-rewrite serve: hits=%d misses=%d, want 3/6", h, m)
	}
	got, err = os.ReadFile(filepath.Join(dstDir2, "data.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Error("post-rewrite fetch content mismatch")
	}

	// Preallocation markers must all be lifted after clean completion.
	for _, dir := range []string{dstDir, dstDir2} {
		matches, err := filepath.Glob(filepath.Join(dir, "*"+PartialMarkerSuffix))
		if err != nil {
			t.Fatal(err)
		}
		if len(matches) != 0 {
			t.Errorf("markers left behind in %s: %v", dir, matches)
		}
	}
}

func TestCRCCacheEviction(t *testing.T) {
	c := newCRCCache(2)
	c.open("a", 100, 1, 64)
	c.open("b", 100, 1, 64)
	c.open("c", 100, 1, 64)
	if n := c.len(); n != 2 {
		t.Errorf("cache holds %d entries past capacity 2", n)
	}
}

func TestBlockBufPoolBuckets(t *testing.T) {
	cases := []struct {
		n       int
		wantCap int
	}{
		{1, 64 * 1024},
		{64 * 1024, 64 * 1024},
		{64*1024 + 1, 128 * 1024},
		{256 * 1024, 256 * 1024},
		{5 * 1024 * 1024, 8 * 1024 * 1024},
		{8 * 1024 * 1024, 8 * 1024 * 1024},
	}
	for _, tc := range cases {
		p := getBlockBuf(tc.n)
		if len(*p) != tc.n {
			t.Errorf("getBlockBuf(%d): len %d", tc.n, len(*p))
		}
		if cap(*p) != tc.wantCap {
			t.Errorf("getBlockBuf(%d): cap %d, want bucket %d", tc.n, cap(*p), tc.wantCap)
		}
		putBlockBuf(p)
	}

	// Oversized requests bypass the pool and keep their exact size.
	big := getBlockBuf(9 * 1024 * 1024)
	if len(*big) != 9*1024*1024 || cap(*big) != 9*1024*1024 {
		t.Errorf("oversized buf: len %d cap %d", len(*big), cap(*big))
	}
	putBlockBuf(big) // dropped, not pooled; must not panic

	// Foreign capacities (not a bucket size) are rejected rather than
	// poisoning a bucket with a short buffer.
	odd := make([]byte, 100*1024)
	putBlockBuf(&odd)
	putBlockBuf(nil)
}

func TestDirSinkPreallocateMarkerLifecycle(t *testing.T) {
	dir := t.TempDir()
	sink := NewDirSink(dir)
	if err := sink.Preallocate("f.bin", 4096); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "f.bin")
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != 4096 {
		t.Errorf("preallocated size %d, want 4096", info.Size())
	}
	if _, err := os.Stat(path + PartialMarkerSuffix); err != nil {
		t.Errorf("marker missing after Preallocate: %v", err)
	}
	if _, err := sink.WriteAt("f.bin", make([]byte, 4096), 0); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close("f.bin"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + PartialMarkerSuffix); !os.IsNotExist(err) {
		t.Errorf("marker still present after Close: %v", err)
	}
}

func TestResumeRangesRefetchesMarkedPartial(t *testing.T) {
	dir := t.TempDir()
	files := []dataset.File{
		{Name: "done.bin", Size: 1000},
		{Name: "interrupted.bin", Size: 1000},
	}
	// done.bin completed; interrupted.bin was preallocated to full size
	// (its length lies) and still carries the partial marker.
	if err := os.WriteFile(filepath.Join(dir, "done.bin"), make([]byte, 1000), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "interrupted.bin"), make([]byte, 1000), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "interrupted.bin"+PartialMarkerSuffix), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	plan, err := PlanResume(dir, files, ResumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Skipped != 1000 {
		t.Errorf("skipped %v bytes, want 1000 (done.bin only)", plan.Skipped)
	}
	if ranges := plan.Ranges; len(ranges) != 1 || ranges[0].File.Name != "interrupted.bin" || ranges[0].Offset != 0 {
		t.Errorf("ranges = %+v, want whole refetch of interrupted.bin", ranges)
	}
}
