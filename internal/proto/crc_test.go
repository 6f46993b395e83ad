package proto

import (
	"errors"
	"hash/crc32"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/units"
)

func TestCRC32CCombineMatchesSequential(t *testing.T) {
	f := func(seed int64, lenA, lenB uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		a := make([]byte, int(lenA))
		b := make([]byte, int(lenB))
		rng.Read(a)
		rng.Read(b)
		whole := crc32.Checksum(append(append([]byte{}, a...), b...), crcTable)
		combined := CRC32CCombine(crc32.Checksum(a, crcTable), crc32.Checksum(b, crcTable), int64(len(b)))
		return whole == combined
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCRC32CCombineZeroLength(t *testing.T) {
	if got := CRC32CCombine(0xDEADBEEF, 0x12345678, 0); got != 0xDEADBEEF {
		t.Errorf("zero-length combine = %08x", got)
	}
}

func TestCRC32CCombineGolden(t *testing.T) {
	// Lengths past 2^29 exercise the wrap of the x^(2^k) table; a table
	// of period 32 (zlib's, for its own polynomial) gets all of these
	// wrong. The values were computed with the GF(2) matrix construction
	// this package used before.
	for _, tc := range []struct {
		len2 int64
		want uint32
	}{
		{1 << 29, 0x9e31cb6e},
		{1<<31 + 5, 0xe3fc6ae0},
		{1<<40 + 12345, 0xa9cf6671},
		{1<<63 - 1, 0x61efe664},
	} {
		if got := CRC32CCombine(0x12345678, 0x9abcdef0, tc.len2); got != tc.want {
			t.Errorf("CRC32CCombine(.., %d) = %08x, want %08x", tc.len2, got, tc.want)
		}
	}
}

func TestCRC32CCombineAssociative(t *testing.T) {
	f := func(a, b, c uint32, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l1, l2 := rng.Int63n(1<<62), rng.Int63n(1<<62)
		left := CRC32CCombine(CRC32CCombine(a, b, l1), c, l2)
		right := CRC32CCombine(a, CRC32CCombine(b, c, l2), l1+l2)
		return left == right
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// sinkCRC keeps the benchmarked combines live.
var sinkCRC uint32

func BenchmarkCRC32CCombine(b *testing.B) {
	for _, len2 := range []int64{256 << 10, 1<<40 + 12345} {
		b.Run(strconv.FormatInt(len2, 10), func(b *testing.B) {
			crc := uint32(0x12345678)
			for i := 0; i < b.N; i++ {
				crc = CRC32CCombine(crc, 0x9abcdef0, len2)
			}
			sinkCRC = crc
		})
	}
}

func TestCombineBlocksTiling(t *testing.T) {
	data := make([]byte, 10000)
	rand.New(rand.NewSource(7)).Read(data)
	whole := crc32.Checksum(data, crcTable)

	// Split into irregular blocks and shuffle.
	var blocks []blockCRC
	bounds := []int64{0, 137, 1000, 1001, 4096, 9000, 10000}
	for i := 1; i < len(bounds); i++ {
		lo, hi := bounds[i-1], bounds[i]
		blocks = append(blocks, blockCRC{
			off: lo, n: hi - lo,
			crc: crc32.Checksum(data[lo:hi], crcTable),
		})
	}
	rand.New(rand.NewSource(9)).Shuffle(len(blocks), func(i, j int) {
		blocks[i], blocks[j] = blocks[j], blocks[i]
	})
	got, ok := combineBlocks(blocks, int64(len(data)))
	if !ok || got != whole {
		t.Errorf("combineBlocks = %08x ok=%v, want %08x", got, ok, whole)
	}
}

func TestCombineBlocksDetectsGapsAndOverlaps(t *testing.T) {
	gap := []blockCRC{{off: 0, n: 10}, {off: 20, n: 10}}
	if _, ok := combineBlocks(gap, 30); ok {
		t.Error("gap accepted")
	}
	overlap := []blockCRC{{off: 0, n: 20}, {off: 10, n: 20}}
	if _, ok := combineBlocks(overlap, 30); ok {
		t.Error("overlap accepted")
	}
	short := []blockCRC{{off: 0, n: 10}}
	if _, ok := combineBlocks(short, 30); ok {
		t.Error("short tiling accepted")
	}
}

func TestFetchWithChecksumVerification(t *testing.T) {
	// Striped transfer with checksum verification on: block CRCs from
	// four streams must combine to the server's whole-file CRC.
	ds := dataset.NewGenerator(30).Uniform(4, 2*units.MB)
	srv := synthServer(t, ds, func(c *ServerConfig) { c.BlockSize = 96 * 1024 })
	client := &Client{Addr: srv.Addr(), VerifyChecksums: true}
	ch, err := client.OpenChannel(4)
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	res, err := ch.Fetch(ds.Files, 2, NewVerifySink())
	if err != nil {
		t.Fatalf("checksum-verified fetch failed: %v", err)
	}
	if res.Bytes != ds.TotalSize() {
		t.Errorf("moved %v of %v", res.Bytes, ds.TotalSize())
	}
}

func TestChecksumCatchesCorruption(t *testing.T) {
	// Corruption is simulated on the record side: tamper with the
	// recorded block CRC via a hand-built pendingGet.
	p := &pendingGet{length: 100}
	data := make([]byte, 100)
	FillSynth("x", 0, data)
	p.recordBlock(0, int64(len(data)), crc32.Checksum(data, crcTable))
	p.crc = crc32.Checksum(data, crcTable)
	if err := p.verifyChecksum(); err != nil {
		t.Fatalf("clean verification failed: %v", err)
	}
	p.blocks[0].crc ^= 1
	if err := p.verifyChecksum(); err == nil {
		t.Error("corrupted block CRC passed verification")
	}
}

func TestCombineBlocksZeroLengthBlocks(t *testing.T) {
	// Zero-length blocks are legal tiles anywhere in the range: they
	// contribute nothing to the CRC and must not break the tiling scan.
	data := make([]byte, 1000)
	rand.New(rand.NewSource(11)).Read(data)
	whole := crc32.Checksum(data, crcTable)
	blocks := []blockCRC{
		{off: 0, n: 0, crc: 0},
		{off: 0, n: 600, crc: crc32.Checksum(data[:600], crcTable)},
		{off: 600, n: 0, crc: 0},
		{off: 600, n: 400, crc: crc32.Checksum(data[600:], crcTable)},
		{off: 1000, n: 0, crc: 0},
	}
	got, ok := combineBlocks(blocks, int64(len(data)))
	if !ok || got != whole {
		t.Errorf("combineBlocks with zero-length tiles = %08x ok=%v, want %08x", got, ok, whole)
	}
	// An entirely empty range combines to the zero CRC.
	if got, ok := combineBlocks(nil, 0); !ok || got != 0 {
		t.Errorf("empty range = %08x ok=%v, want 0", got, ok)
	}
	if got, ok := combineBlocks([]blockCRC{{off: 0, n: 0, crc: 0}}, 0); !ok || got != 0 {
		t.Errorf("single zero block over empty range = %08x ok=%v", got, ok)
	}
}

func TestCombineBlocksSingleBlockFile(t *testing.T) {
	// A file that fits in one block must combine to exactly that block's
	// CRC — the degenerate case: one combine onto the zero CRC.
	data := make([]byte, 4096)
	rand.New(rand.NewSource(12)).Read(data)
	whole := crc32.Checksum(data, crcTable)
	got, ok := combineBlocks([]blockCRC{{off: 0, n: 4096, crc: whole}}, 4096)
	if !ok || got != whole {
		t.Errorf("single-block combine = %08x ok=%v, want %08x", got, ok, whole)
	}
}

func TestVerifyChecksumResumeOffsetNormalization(t *testing.T) {
	// A resumed GET records blocks at absolute file offsets, but the
	// server's checksum covers only the requested [offset, offset+length)
	// window. verifyChecksum must normalize by p.offset before tiling.
	total := make([]byte, 1500)
	FillSynth("resumed.dat", 0, total)
	p := &pendingGet{name: "resumed.dat", offset: 1000, length: 500}
	p.recordBlock(1000, 200, crc32.Checksum(total[1000:1200], crcTable))
	p.recordBlock(1200, 300, crc32.Checksum(total[1200:1500], crcTable))
	p.crc = crc32.Checksum(total[1000:1500], crcTable)
	if err := p.verifyChecksum(); err != nil {
		t.Fatalf("resumed-range verification failed: %v", err)
	}

	// Without normalization the same blocks would read as a gap at the
	// start of the range; prove a genuinely-absolute recording fails and
	// carries the typed sentinel.
	q := &pendingGet{name: "resumed.dat", offset: 0, length: 500}
	q.recordBlock(1000, 200, crc32.Checksum(total[1000:1200], crcTable))
	q.recordBlock(1200, 300, crc32.Checksum(total[1200:1500], crcTable))
	q.crc = p.crc
	err := q.verifyChecksum()
	if err == nil {
		t.Fatal("mis-offset blocks passed verification")
	}
	if !errors.Is(err, ErrChecksumMismatch) {
		t.Errorf("tiling failure is %v, want ErrChecksumMismatch", err)
	}
}

func TestVerifyChecksumTypedError(t *testing.T) {
	// Both failure modes — bad tiling and a CRC mismatch — must wrap
	// ErrChecksumMismatch so the executor can tell corruption apart from
	// transport failures.
	data := make([]byte, 256)
	FillSynth("t.dat", 0, data)
	p := &pendingGet{name: "t.dat", length: 256}
	p.recordBlock(0, int64(len(data)), crc32.Checksum(data, crcTable))
	p.crc = crc32.Checksum(data, crcTable)
	if err := p.verifyChecksum(); err != nil {
		t.Fatalf("clean verification failed: %v", err)
	}
	p.blocks[0].crc ^= 1
	if err := p.verifyChecksum(); !errors.Is(err, ErrChecksumMismatch) {
		t.Errorf("CRC mismatch is %v, want ErrChecksumMismatch", err)
	}
}

func TestVerifyChecksumZeroLengthRange(t *testing.T) {
	// A zero-length request has nothing to verify: no blocks, zero CRC.
	p := &pendingGet{name: "empty.dat", length: 0}
	if err := p.verifyChecksum(); err != nil {
		t.Errorf("zero-length verification failed: %v", err)
	}
}

func TestSortBlocks(t *testing.T) {
	blocks := []blockCRC{{off: 30}, {off: 0}, {off: 20}, {off: 10}}
	sortBlocks(blocks)
	for i := 1; i < len(blocks); i++ {
		if blocks[i].off < blocks[i-1].off {
			t.Fatalf("not sorted: %+v", blocks)
		}
	}
}
