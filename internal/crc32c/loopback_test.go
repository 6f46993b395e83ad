package crc32c_test

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"github.com/didclab/eta/internal/crc32c"
	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/obs"
	"github.com/didclab/eta/internal/proto"
	"github.com/didclab/eta/internal/units"
)

// The tests here run crc32c through the real data plane: a server on
// loopback, a client verifying every block, and the server's CRC
// sidecar. hash/crc32 is the independent reference.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func TestLoopbackFileCRCsMatchStdlib(t *testing.T) {
	// Sizes around the kernel's 256-byte stride and 1 KiB threshold and
	// around the 256 KiB block.
	sizes := []int{0, 1, 255, 256, 1023, 1024, 256<<10 - 1, 256 << 10, 256<<10 + 1, 1<<20 + 17}
	src := t.TempDir()
	rng := rand.New(rand.NewSource(1))
	files := make([]dataset.File, len(sizes))
	content := make(map[string][]byte, len(sizes))
	for i, n := range sizes {
		name := fmt.Sprintf("f%02d.bin", i)
		p := make([]byte, n)
		rng.Read(p)
		if err := os.WriteFile(filepath.Join(src, name), p, 0o644); err != nil {
			t.Fatal(err)
		}
		files[i] = dataset.File{Name: name, Size: units.Bytes(n)}
		content[name] = p
	}
	crc32c.EachPath(t, func(t *testing.T) {
		reg := obs.NewRegistry()
		srv, err := proto.ListenAndServe("127.0.0.1:0", proto.ServerConfig{Store: proto.DirStore{Root: src}, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		for _, pass := range []string{"cold", "warm"} {
			dst := t.TempDir()
			jpath := filepath.Join(t.TempDir(), "receipts")
			j, err := proto.OpenJournal(jpath, proto.JournalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			client := &proto.Client{Addr: srv.Addr(), VerifyChecksums: true, Journal: j}
			ch, err := client.OpenChannel(2)
			if err != nil {
				t.Fatal(err)
			}
			_, err = ch.Fetch(files, 4, proto.NewDirSink(dst))
			ch.Close()
			if cerr := j.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatalf("%s fetch: %v", pass, err)
			}
			recs, torn, err := proto.ReadJournal(jpath)
			if err != nil || torn {
				t.Fatalf("%s journal: torn=%v err=%v", pass, torn, err)
			}
			byName := map[string][]proto.Receipt{}
			for _, r := range recs {
				byName[r.Name] = append(byName[r.Name], r)
			}
			for _, f := range files {
				want := content[f.Name]
				if got := fileCRC(t, byName[f.Name], int64(len(want))); got != crc32.Checksum(want, castagnoli) {
					t.Errorf("%s %s (%d B): combined block CRC %08x, hash/crc32 %08x",
						pass, f.Name, len(want), got, crc32.Checksum(want, castagnoli))
				}
				if len(want) == 0 {
					continue
				}
				if got, err := os.ReadFile(filepath.Join(dst, f.Name)); err != nil || !bytes.Equal(got, want) {
					t.Errorf("%s %s: destination differs from the source (err %v)", pass, f.Name, err)
				}
			}
		}
		if hits := reg.Counter("server_crc_cache_hits").Value(); hits == 0 {
			t.Error("the warm pass took no CRC from the sidecar")
		}
	})
}

// fileCRC combines one file's block receipts, which must tile [0, size).
func fileCRC(t *testing.T, recs []proto.Receipt, size int64) uint32 {
	t.Helper()
	sort.Slice(recs, func(i, j int) bool { return recs[i].Off < recs[j].Off })
	var crc uint32
	var pos int64
	for _, r := range recs {
		if r.Off != pos {
			t.Fatalf("%s: receipt at %d, want %d", r.Name, r.Off, pos)
		}
		crc = crc32c.Combine(crc, r.CRC, r.N)
		pos += r.N
	}
	if pos != size {
		t.Fatalf("receipts cover %d of %d bytes", pos, size)
	}
	return crc
}

// flipStore serves one file from memory under a constant identity, so
// the server's sidecar keeps the CRCs of the first serve while flip
// names one bit that later reads return inverted.
type flipStore struct {
	data []byte
	mu   sync.Mutex
	flip int // bit index into data; -1 for none
}

func (s *flipStore) List() ([]dataset.File, error) {
	return []dataset.File{{Name: "block", Size: units.Bytes(len(s.data))}}, nil
}

func (s *flipStore) ReadAt(_ string, p []byte, off int64) (int, error) {
	n := copy(p, s.data[off:])
	s.mu.Lock()
	if i := int64(s.flip/8) - off; s.flip >= 0 && i >= 0 && i < int64(n) {
		p[i] ^= 1 << (s.flip % 8)
	}
	s.mu.Unlock()
	return n, nil
}

func (s *flipStore) Version(string) (size, mtime int64, ok bool) {
	return int64(len(s.data)), 1, true
}

func TestLoopbackLaneBitFlipsFailVerify(t *testing.T) {
	// One 256 KiB block: a bit flipped at any 64-byte boundary (the
	// first bit of one ZMM load, and the last bit before it) changes
	// the client's block CRC, so the combined CRC disagrees with the
	// sidecar's and the fetch fails with ErrChecksumMismatch.
	const size = 256 << 10
	store := &flipStore{data: make([]byte, size), flip: -1}
	rand.New(rand.NewSource(2)).Read(store.data)
	files, _ := store.List()
	crc32c.EachPath(t, func(t *testing.T) {
		srv, err := proto.ListenAndServe("127.0.0.1:0", proto.ServerConfig{Store: store, BlockSize: size})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		client := &proto.Client{Addr: srv.Addr(), VerifyChecksums: true, BlockSize: size}
		ch, err := client.OpenChannel(1)
		if err != nil {
			t.Fatal(err)
		}
		defer ch.Close()
		fetch := func(flip int) error {
			store.mu.Lock()
			store.flip = flip
			store.mu.Unlock()
			_, err := ch.Fetch(files, 1, discard{})
			return err
		}
		if err := fetch(-1); err != nil {
			t.Fatalf("clean fetch: %v", err)
		}
		for b := 0; b < size; b += 64 {
			for _, bit := range []int{8*b - 1, 8 * b} {
				if bit < 0 {
					continue
				}
				if err := fetch(bit); !errors.Is(err, proto.ErrChecksumMismatch) {
					t.Fatalf("bit %d flipped: fetch error %v, want %v", bit, err, proto.ErrChecksumMismatch)
				}
			}
		}
		if err := fetch(8*size - 1); !errors.Is(err, proto.ErrChecksumMismatch) {
			t.Fatalf("last bit flipped: fetch error %v, want %v", err, proto.ErrChecksumMismatch)
		}
	})
}

type discard struct{}

func (discard) WriteAt(_ string, p []byte, _ int64) (int, error) { return len(p), nil }
func (discard) Close(string) error                               { return nil }
