package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"syscall"

	"github.com/didclab/eta/internal/proto"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// fixtureFile is one generated source file and what a correct transfer
// of it must deliver.
type fixtureFile struct {
	name string
	key  uint64 // content generator key
	size int64
	crc  uint32   // CRC-32C of the whole file
	tile []uint32 // CRC-32C of each proto.DefaultBlockSize tile
}

// fixture is a generated source tree.
type fixture struct {
	root  string
	files []fixtureFile
	total int64
}

// fill writes the content of file key at byte offset off into p. The
// content is a counter-mode mix of (key, 8-byte lane), so any range can
// be regenerated on its own.
func fill(key uint64, off int64, p []byte) {
	for i := 0; i < len(p); {
		pos := off + int64(i)
		lane := uint64(pos >> 3)
		x := key + lane*0x9E3779B97F4A7C15
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		x *= 0x94D049BB133111EB
		x ^= x >> 31
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], x)
		i += copy(p[i:], b[pos&7:])
	}
}

// bulkFixture is 8 files of 32 MB.
func bulkFixture(root string, seed uint64) (*fixture, error) {
	sizes := make([]int64, 8)
	for i := range sizes {
		sizes[i] = 32 << 20
	}
	return writeFixture(root, seed, sizes, func(i int) string { return fmt.Sprintf("f%d.bin", i) })
}

// smallFixture is 400 files log-uniform in 64–512 KB (≈85 MB), spread
// over 16 directories. Every file costs the sink a partial-marker
// create and remove, and on an ext4 VM disk those dominate and vary by
// tens of percent from run to run; 2000 files of 8–128 KB made the
// workload too unsteady to gate on (NOTES.md).
func smallFixture(root string, seed uint64) (*fixture, error) {
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	lo, hi := math.Log(64<<10), math.Log(512<<10)
	sizes := make([]int64, 400)
	for i := range sizes {
		sizes[i] = int64(math.Exp(lo + r.Float64()*(hi-lo)))
	}
	return writeFixture(root, seed, sizes, func(i int) string { return fmt.Sprintf("d%02d/f%04d.bin", i%16, i) })
}

// writeFixture generates the files, records their checksums and syncs
// the filesystem so write-back does not run into the timed passes.
func writeFixture(root string, seed uint64, sizes []int64, name func(int) string) (*fixture, error) {
	fx := &fixture{root: root}
	buf := make([]byte, proto.DefaultBlockSize)
	for i, size := range sizes {
		ff := fixtureFile{name: name(i), key: seed*0x100000001B3 + uint64(i)<<32 + 1, size: size}
		path := filepath.Join(root, filepath.FromSlash(ff.name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, err
		}
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		for off := int64(0); off < size; off += int64(len(buf)) {
			n := min(int64(len(buf)), size-off)
			fill(ff.key, off, buf[:n])
			c := crc32.Checksum(buf[:n], castagnoli)
			ff.tile = append(ff.tile, c)
			ff.crc = proto.CRC32CCombine(ff.crc, c, n)
			if _, err := f.Write(buf[:n]); err != nil {
				f.Close()
				return nil, err
			}
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		fx.files = append(fx.files, ff)
		fx.total += size
	}
	// sync(2) rather than an fsync per file: one call for thousands of
	// small files.
	syscall.Sync()
	return fx, nil
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	}
	return fmt.Sprintf("magic 0x%x", st.Type)
}
