package proto

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/obs"
	"github.com/didclab/eta/internal/units"
)

// recordingVectorWriter counts how the bytes arrive: vectored batches
// versus flat Writes.
type recordingVectorWriter struct {
	buf          bytes.Buffer
	vectorCalls  int
	vectorBufs   int
	writeCalls   int
	failVectored bool
}

func (r *recordingVectorWriter) Write(p []byte) (int, error) {
	r.writeCalls++
	return r.buf.Write(p)
}

func (r *recordingVectorWriter) WriteBuffers(bufs *net.Buffers) (int64, error) {
	r.vectorCalls++
	r.vectorBufs += len(*bufs)
	var total int64
	for _, b := range *bufs {
		n, _ := r.buf.Write(b)
		total += int64(n)
	}
	*bufs = (*bufs)[len(*bufs):]
	return total, nil
}

func TestShapedWriterVectoredPassThrough(t *testing.T) {
	// An inner writer that understands vectored writes must receive the
	// buffers as one batch, not flattened into per-buffer Writes.
	inner := &recordingVectorWriter{}
	w := shapedWriter{w: inner, limiters: []*Limiter{NewLimiter(0), nil}}
	bufs := net.Buffers{[]byte("head"), []byte("er+"), []byte("payload")}
	n, err := w.WriteBuffers(&bufs)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len("header+payload")); n != want {
		t.Errorf("wrote %d bytes, want %d", n, want)
	}
	if inner.vectorCalls != 1 || inner.vectorBufs != 3 {
		t.Errorf("inner saw %d vectored calls with %d buffers, want 1 with 3",
			inner.vectorCalls, inner.vectorBufs)
	}
	if inner.writeCalls != 0 {
		t.Errorf("inner saw %d flat writes, want 0", inner.writeCalls)
	}
	if got := inner.buf.String(); got != "header+payload" {
		t.Errorf("content %q, want %q", got, "header+payload")
	}
}

func TestWriteBuffersFallbackPlainWriter(t *testing.T) {
	// A plain io.Writer gets the same bytes through the WriteTo
	// fallback.
	var buf bytes.Buffer
	w := shapedWriter{w: &buf}
	bufs := net.Buffers{[]byte("ab"), []byte("cd")}
	if _, err := w.WriteBuffers(&bufs); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "abcd" {
		t.Errorf("content %q, want %q", got, "abcd")
	}
}

func TestShapedWriterWriteBuffersZeroAlloc(t *testing.T) {
	inner := &recordingVectorWriter{}
	w := shapedWriter{w: inner, limiters: []*Limiter{NewLimiter(0)}}
	payload := make([]byte, 1024)
	header := make([]byte, blockHeaderSize)
	scratch := make(net.Buffers, 0, 2)
	var bufs net.Buffers
	allocs := testing.AllocsPerRun(100, func() {
		inner.buf.Reset()
		scratch = append(scratch[:0], header, payload)
		bufs = scratch
		if _, err := w.WriteBuffers(&bufs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("WriteBuffers allocates %.1f times per call, want 0", allocs)
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
		matches, err := filepath.Glob(filepath.Join(dir, "*"+partialMarkerSuffix))
		if err != nil {
			t.Fatal(err)
		}
		if len(matches) != 0 {
			t.Errorf("markers left behind in %s: %v", dir, matches)
		}
	}
}

func TestCRCCacheDisabled(t *testing.T) {
	ds := dataset.NewGenerator(5).Uniform(1, 512*units.KB)
	reg := obs.NewRegistry()
	srv := synthServer(t, ds, func(c *ServerConfig) {
		c.Metrics = reg
		c.DisableCRCCache = true
	})
	client := &Client{Addr: srv.Addr(), VerifyChecksums: true}
	ch, err := client.OpenChannel(1)
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	for i := 0; i < 2; i++ {
		sink := NewVerifySink()
		if _, err := ch.Fetch(ds.Files, 1, sink); err != nil {
			t.Fatal(err)
		}
		if bad := sink.Corrupt(); len(bad) > 0 {
			t.Errorf("fetch %d corrupted: %v", i, bad)
		}
	}
	if h, m := reg.Counter("server_crc_cache_hits").Value(), reg.Counter("server_crc_cache_misses").Value(); h != 0 || m != 0 {
		t.Errorf("disabled cache counted hits=%d misses=%d, want 0/0", h, m)
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
	if _, err := os.Stat(path + partialMarkerSuffix); err != nil {
		t.Errorf("marker missing after Preallocate: %v", err)
	}
	if _, err := sink.WriteAt("f.bin", make([]byte, 4096), 0); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close("f.bin"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + partialMarkerSuffix); !os.IsNotExist(err) {
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
	if err := os.WriteFile(filepath.Join(dir, "interrupted.bin"+partialMarkerSuffix), nil, 0o644); err != nil {
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
