package proto

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
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

// A warm DirStore serve sends every block by sendfile from one open
// per GET; a cold one reads and writev's them. Both deliver the same
// bytes under a DONE CRC the client verifies, shaped or not, at aligned
// and unaligned offsets, through the tail block.
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
		file := dataset.File{Name: "data.bin", Size: size}
		fetch := func(step string, off units.Bytes, wantSendfile int64) {
			t.Helper()
			sink := &memSink{files: map[string][]byte{}, size: size}
			opens, sf, wv := store.opens.Load(), sendfiles.Value(), writevBlocks.Value()
			if _, err := ch.FetchRanges([]FileRange{{File: file, Offset: off}}, 1, sink); err != nil {
				t.Fatalf("shaped=%v %s: %v", shaped, step, err)
			}
			if got := sink.files["data.bin"]; !bytes.Equal(got[off:], content[off:]) {
				t.Errorf("shaped=%v %s: content differs from source", shaped, step)
			}
			blocks := (int64(size-off) + blockSize - 1) / blockSize
			if got := sendfiles.Value() - sf; got != wantSendfile {
				t.Errorf("shaped=%v %s: %d sendfile blocks, want %d", shaped, step, got, wantSendfile)
			}
			if got := writevBlocks.Value() - wv; got != blocks {
				t.Errorf("shaped=%v %s: %d block headers went by writev, want %d", shaped, step, got, blocks)
			}
			if got := store.opens.Load() - opens; got != 1 {
				t.Errorf("shaped=%v %s: %d opens for one GET, want 1", shaped, step, got)
			}
		}
		fetch("cold", 0, 0)
		fetch("warm", 0, 4)
		fetch("warm aligned range", blockSize, 3)
		// Unaligned ranges never use the sidecar: every block is read.
		fetch("unaligned range", blockSize+100, 0)
		ch.Close()
	}
}

// truncatingStore shrinks the file to just past its middle right after
// the server has taken its identity, so the sidecar still vouches for
// blocks that are partly or wholly gone by the time they are sent.
type truncatingStore struct {
	DirStore
	armed atomic.Bool
}

func (s *truncatingStore) Version(name string) (int64, int64, bool) {
	size, tok, ok := s.DirStore.Version(name)
	if ok && s.armed.Load() {
		if err := os.Truncate(filepath.Join(s.Root, name), size/2+1000); err != nil {
			return 0, 0, false
		}
	}
	return size, tok, ok
}

// A file that shrinks under a warm serve fails the GET instead of
// leaving a short frame that would hang the client, and the stream
// stays framed for the next GET on the channel.
func TestSendfileTruncatedFileFailsGet(t *testing.T) {
	const blockSize = 64 * 1024
	dir := t.TempDir()
	writeSource(t, dir, "shrinks.bin", 4*blockSize)
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
	shrinks := []dataset.File{{Name: "shrinks.bin", Size: 4 * blockSize}}
	if _, err := ch.Fetch(shrinks, 1, NewVerifySink()); err != nil {
		t.Fatal(err)
	}

	store.armed.Store(true)
	done := make(chan error, 1)
	go func() {
		_, err := ch.Fetch(shrinks, 1, NewVerifySink())
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("fetch of a file truncated mid-serve succeeded")
		}
		t.Logf("truncated serve: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("fetch of a file truncated mid-serve hung")
	}
	if reg.Counter("server_sendfile_blocks").Value() == 0 {
		t.Error("the truncated serve never reached the sendfile path")
	}
	store.armed.Store(false)

	sink := &memSink{files: map[string][]byte{}, size: int64(len(steady))}
	if _, err := ch.Fetch([]dataset.File{{Name: "steady.bin", Size: units.Bytes(len(steady))}}, 1, sink); err != nil {
		t.Fatalf("channel unusable after the failed GET: %v", err)
	}
	if !bytes.Equal(sink.files["steady.bin"], steady) {
		t.Error("content after the failed GET differs from source")
	}
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
	w := newStreamWriter(c1, 1, nil, nil, 100*time.Millisecond, &serverInstruments{})
	w.file = newFileSender(c1)
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
	if newFileSender(c1) != nil {
		t.Error("a net.Pipe got a sendfile sender")
	}
}

// A batch mixing a buffered block and a file-backed one allocates
// nothing per block.
func TestSendfileWarmPathZeroAlloc(t *testing.T) {
	w, r := tcpPair(t)
	go io.Copy(io.Discard, r)
	const n = 64 * 1024
	f := sparseFile(t, n)
	sw := newStreamWriter(w, 2, NewLimiter(0), nil, time.Second, &serverInstruments{})
	sw.file = newFileSender(w)
	payload := make([]byte, n)
	batch := []queuedBlock{
		{header: blockHeader{ReqID: 1, Length: n}, buf: &payload},
		{header: blockHeader{ReqID: 1, Length: n}, file: f},
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := sw.write(batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a warm batch allocates %.1f times, want 0", allocs)
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
