package proto

import (
	"encoding/binary"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/units"
)

// Store is the server-side file source.
type Store interface {
	// List enumerates the transferable files.
	List() ([]dataset.File, error)
	// ReadAt fills p with the file's content at offset. Semantics
	// follow io.ReaderAt.
	ReadAt(name string, p []byte, off int64) (int, error)
}

// Versioner is an optional Store extension: stores that can report a
// file's current identity (size plus a modification token) enable the
// server's CRC sidecar cache, which skips re-hashing payload bytes on
// repeat serves of an unchanged file. mtime is any value that changes
// whenever the content may have (DirStore folds the mtime with the
// ctime and inode; immutable stores return a constant). Stores without
// the method are simply never cached.
type Versioner interface {
	Version(name string) (size int64, mtime int64, ok bool)
}

// Opener is an optional Store extension for stores backed by real
// files. The server opens the file once per GET and closes it when the
// GET ends: cold blocks are read from that handle instead of through
// ReadAt, and on Linux TCP streams a block whose checksum the CRC
// sidecar already holds goes out by sendfile(2) without being read at
// all. Stores without the method are served block by block through
// ReadAt.
type Opener interface {
	Open(name string) (*os.File, error)
}

// DirStore serves real files from a directory tree.
type DirStore struct {
	Root string
}

// List implements Store by walking the directory.
func (s DirStore) List() ([]dataset.File, error) {
	var files []dataset.File
	err := filepath.WalkDir(s.Root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(s.Root, path)
		if err != nil {
			return err
		}
		files = append(files, dataset.File{
			Name: filepath.ToSlash(rel),
			Size: units.Bytes(info.Size()),
		})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("proto: listing %s: %w", s.Root, err)
	}
	sort.Slice(files, func(i, j int) bool { return files[i].Name < files[j].Name })
	return files, nil
}

// rootedPath confines a slash-separated file name to root: the one
// path rule for DirStore, DirSink and PlanResume. It rejects absolute
// names and a leading ".." *path element* after cleaning; a name that
// merely starts with two dots ("..config") is legitimate.
func rootedPath(root, name string) (string, error) {
	clean := filepath.Clean(filepath.FromSlash(name))
	if clean == ".." || strings.HasPrefix(clean, ".."+string(filepath.Separator)) || filepath.IsAbs(clean) {
		return "", fmt.Errorf("proto: path %q escapes its root", name)
	}
	return filepath.Join(root, clean), nil
}

// Open implements Opener. Paths are confined to the root.
func (s DirStore) Open(name string) (*os.File, error) {
	path, err := rootedPath(s.Root, name)
	if err != nil {
		return nil, err
	}
	return os.Open(path)
}

// ReadAt implements Store.
func (s DirStore) ReadAt(name string, p []byte, off int64) (int, error) {
	f, err := s.Open(name)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return f.ReadAt(p, off)
}

// Version implements Versioner from the file's stat: the size, and a
// token that folds the mtime with the ctime and inode where the
// platform reports them (versionToken). Restoring a rewritten file's
// mtime does not restore its ctime, so the rewrite still invalidates
// the CRC sidecar. Where only the mtime is known, a same-size rewrite
// that keeps the mtime serves the old checksums: the client detects
// the mismatch, but every refetch gets the same stale CRC until the
// sidecar entry goes.
func (s DirStore) Version(name string) (int64, int64, bool) {
	path, err := rootedPath(s.Root, name)
	if err != nil {
		return 0, 0, false
	}
	info, err := os.Stat(path)
	if err != nil || info.IsDir() {
		return 0, 0, false
	}
	return info.Size(), versionToken(info), true
}

// SynthStore serves deterministic pseudo-random content for a synthetic
// dataset — the substitute for the paper's testbed filesystems when no
// real data is present. Content depends only on (file name, offset), so
// any byte range can be regenerated and verified independently.
type SynthStore struct {
	mu    sync.RWMutex
	files map[string]units.Bytes
	order []dataset.File
}

// NewSynthStore builds a store serving ds.
func NewSynthStore(ds dataset.Dataset) *SynthStore {
	s := &SynthStore{files: make(map[string]units.Bytes, len(ds.Files))}
	for _, f := range ds.Files {
		if _, dup := s.files[f.Name]; !dup {
			s.order = append(s.order, f)
		}
		s.files[f.Name] = f.Size
	}
	return s
}

// List implements Store.
func (s *SynthStore) List() ([]dataset.File, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]dataset.File(nil), s.order...), nil
}

// Version implements Versioner. Synthetic content is a pure function of
// (name, offset), so the identity is the size with a constant mtime.
func (s *SynthStore) Version(name string) (int64, int64, bool) {
	s.mu.RLock()
	size, ok := s.files[name]
	s.mu.RUnlock()
	if !ok {
		return 0, 0, false
	}
	return int64(size), 0, true
}

// ReadAt implements Store.
func (s *SynthStore) ReadAt(name string, p []byte, off int64) (int, error) {
	s.mu.RLock()
	size, ok := s.files[name]
	s.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("proto: no such file %q", name)
	}
	if off < 0 || off > int64(size) {
		return 0, fmt.Errorf("proto: offset %d outside %q (size %d)", off, name, size)
	}
	n := len(p)
	if rem := int64(size) - off; int64(n) > rem {
		n = int(rem)
	}
	FillSynth(name, off, p[:n])
	return n, nil
}

// FillSynth writes the canonical synthetic content of file `name` at
// `off` into p. The generator is a per-8-byte-lane xorshift seeded from
// the name hash and the lane index, so content is O(1)-seekable; one
// mix fills a whole lane.
func FillSynth(name string, off int64, p []byte) {
	seed := nameHash(name)
	var lanes [8]byte
	for i := 0; i < len(p); {
		pos := off + int64(i)
		x := seed ^ uint64(pos>>3)*0x9E3779B97F4A7C15
		x ^= x >> 33
		x *= 0xFF51AFD7ED558CCD
		x ^= x >> 33
		binary.LittleEndian.PutUint64(lanes[:], x)
		i += copy(p[i:], lanes[pos&7:])
	}
}

// nameHash is a stable FNV-1a over the file name.
func nameHash(name string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return h
}

// Sink is the client-side destination for received blocks.
type Sink interface {
	// WriteAt stores payload p of file name at offset off. p is the
	// stream's buffer, reused for the next block: it is only valid for
	// the duration of the call and must not be retained.
	WriteAt(name string, p []byte, off int64) (int, error)
	// Close finalizes the file once all its bytes have arrived.
	Close(name string) error
}

// Preallocator is an optional Sink extension: sinks that can reserve a
// file's final size up front implement it, and the client calls it once
// per issued GET with bytes to move, before the first WriteAt.
// Preallocating turns the out-of-order striped writes into writes inside
// an already-sized file instead of a sequence of file extensions, and it
// is where DirSink marks the file in flight (see PartialMarkerSuffix).
// Implementations must be idempotent — re-fetches after a checksum
// failure preallocate the same file again.
type Preallocator interface {
	Preallocate(name string, size int64) error
}

// DirSink writes received files into a directory tree.
type DirSink struct {
	Root string
	// SyncOnClose fsyncs each file before Close trims it to its size —
	// the store half of the durability discipline: the length mark must
	// not be lifted while the data that justifies lifting it can still
	// be lost. Journal-enabled transfers set it.
	SyncOnClose bool

	mu   sync.Mutex
	open map[string]*sinkFile
}

// sinkFile is one open destination file.
type sinkFile struct {
	*os.File
	// size is the file's final size once Preallocate marked it at
	// size+1, and -1 before: Close trims only a marked file.
	size int64
}

// NewDirSink returns a sink rooted at dir.
func NewDirSink(dir string) *DirSink {
	return &DirSink{Root: dir, open: make(map[string]*sinkFile)}
}

func (s *DirSink) file(name string) (*sinkFile, error) {
	path, err := rootedPath(s.Root, name)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.open[name]; ok {
		return f, nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	sf := &sinkFile{File: f, size: -1}
	s.open[name] = sf
	return sf, nil
}

// WriteAt implements Sink.
func (s *DirSink) WriteAt(name string, p []byte, off int64) (int, error) {
	f, err := s.file(name)
	if err != nil {
		return 0, err
	}
	return f.WriteAt(p, off)
}

// PartialMarkerSuffix named the marker file that earlier builds created
// beside a destination file in flight. A file in flight is now marked by
// its own length: Preallocate sizes it one byte past its source size and
// Close trims it back, so a file longer than its source is one whose
// length lies. PlanResume still honours a leftover marker from an
// earlier build: it converts it to the length mark and removes it.
// Nothing creates one any more.
const PartialMarkerSuffix = ".eta-partial"

// Preallocate implements Preallocator: it sizes the destination file to
// size+1 with one Truncate before the first WriteAt. The extra byte is
// the mark that the file is in flight; Close trims it once the content
// is complete.
func (s *DirSink) Preallocate(name string, size int64) error {
	f, err := s.file(name)
	if err != nil {
		return err
	}
	if err := f.Truncate(size + 1); err != nil {
		return err
	}
	s.mu.Lock()
	f.size = size
	s.mu.Unlock()
	return nil
}

// Close implements Sink. Closing a file that never received a block
// (a zero-byte file) creates it empty.
func (s *DirSink) Close(name string) error {
	s.mu.Lock()
	f, ok := s.open[name]
	delete(s.open, name)
	s.mu.Unlock()
	if !ok {
		var err error
		if f, err = s.file(name); err != nil {
			return err
		}
		s.mu.Lock()
		delete(s.open, name)
		s.mu.Unlock()
	}
	// The content is complete: make it durable first when asked, then
	// lift the length mark (if Preallocate set one) before releasing the
	// handle. Trimming before the data is stable would let a crash leave
	// a file of the right length full of holes.
	if s.SyncOnClose {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	if f.size >= 0 {
		if err := f.Truncate(f.size); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// VerifySink discards payload but verifies every byte against the
// synthetic generator — the zero-disk way to exercise the full protocol
// path with end-to-end integrity checking.
type VerifySink struct {
	mu   sync.Mutex
	bad  []string
	seen map[string]int64
}

// NewVerifySink returns an empty verifying sink.
func NewVerifySink() *VerifySink {
	return &VerifySink{seen: make(map[string]int64)}
}

// WriteAt implements Sink, comparing against FillSynth.
func (s *VerifySink) WriteAt(name string, p []byte, off int64) (int, error) {
	want := make([]byte, len(p))
	FillSynth(name, off, want)
	ok := true
	for i := range p {
		if p[i] != want[i] {
			ok = false
			break
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !ok {
		s.bad = append(s.bad, fmt.Sprintf("%s@%d+%d", name, off, len(p)))
	}
	s.seen[name] += int64(len(p))
	return len(p), nil
}

// Close implements Sink.
func (s *VerifySink) Close(string) error { return nil }

// Corrupt returns descriptions of any corrupted ranges.
func (s *VerifySink) Corrupt() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.bad...)
}

// BytesFor returns how many bytes of a file have been received.
func (s *VerifySink) BytesFor(name string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seen[name]
}
