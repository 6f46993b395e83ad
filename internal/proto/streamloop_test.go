package proto

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"github.com/didclab/eta/internal/crc32c"
)

// chopConn is a data stream held in memory. Each Read returns at most
// chop(pos) bytes, pos being the stream offset the read starts at, so a
// test decides where the reader sees the stream cut. A nil chop leaves
// only the caller's buffer as the limit. The stream ends in io.EOF.
type chopConn struct {
	net.Conn // nil: a stream loop only reads
	data     []byte
	pos      int
	chop     func(pos int) int
	// asked, when set, sees every Read's start and the room it offered.
	asked func(pos, room int)
	reads int
}

func (c *chopConn) Read(p []byte) (int, error) {
	c.reads++
	if c.asked != nil {
		c.asked(c.pos, len(p))
	}
	if c.pos == len(c.data) {
		return 0, io.EOF
	}
	n := min(len(p), len(c.data)-c.pos)
	if c.chop != nil {
		n = min(n, c.chop(c.pos))
	}
	copy(p, c.data[c.pos:c.pos+n])
	c.pos += n
	return n, nil
}

// testGet is one pending GET of a synthetic file; testBlock is one data
// block sent for testGets[get].
type testGet struct {
	name        string
	off, length int64
}

type testBlock struct {
	get int
	off int64
	n   int
}

// frameBlocks renders blocks as the server frames them on a data stream:
// header, then FillSynth payload. It returns the stream and each
// header's offset in it.
func frameBlocks(gets []testGet, blocks []testBlock) ([]byte, []int) {
	var b bytes.Buffer
	starts := make([]int, len(blocks))
	for i, blk := range blocks {
		starts[i] = b.Len()
		g := gets[blk.get]
		_ = writeBlockHeader(&b, blockHeader{ReqID: uint32(blk.get + 1), Offset: uint64(blk.off), Length: uint32(blk.n)})
		payload := make([]byte, blk.n)
		FillSynth(g.name, blk.off, payload)
		b.Write(payload)
	}
	return b.Bytes(), starts
}

// sliceSink writes into preallocated in-memory files; it never allocates.
type sliceSink map[string][]byte

func (s sliceSink) WriteAt(name string, p []byte, off int64) (int, error) {
	return copy(s[name][off:], p), nil
}

func (sliceSink) Close(string) error { return nil }

// streamChannel is a channel with gets pending under ids 1..len(gets),
// each writing into sink, the way a stream loop finds them mid-fetch.
func streamChannel(c *Client, gets []testGet, sink Sink) (*Channel, []*pendingGet) {
	ch := &Channel{client: c, inst: c.instruments(), pending: make(map[uint32]*pendingGet)}
	ps := make([]*pendingGet, len(gets))
	for i, g := range gets {
		ps[i] = &pendingGet{
			name:     g.name,
			offset:   g.off,
			length:   g.length,
			sink:     sink,
			ctrlDone: make(chan struct{}),
			dataDone: make(chan struct{}),
		}
		ch.pending[uint32(i+1)] = ps[i]
	}
	return ch, ps
}

// runStreamLoop reads stream through the progress wrapper a dialed data
// stream carries, until the stream ends.
func runStreamLoop(ch *Channel, conn net.Conn) {
	ch.wg.Add(1)
	ch.streamLoop(progressConn{Conn: conn, progress: &ch.progress})
}

// tile splits [off, off+length) of get into blocks of at most size.
func tile(get int, off, length int64, size int) []testBlock {
	var bs []testBlock
	for pos := off; pos < off+length; pos += int64(size) {
		bs = append(bs, testBlock{get: get, off: pos, n: int(min(int64(size), off+length-pos))})
	}
	return bs
}

// interleave deals the blocks of each list round-robin, as striping
// over one stream interleaves the blocks of pipelined GETs.
func interleave(lists ...[]testBlock) []testBlock {
	var out []testBlock
	for i := 0; ; i++ {
		more := false
		for _, l := range lists {
			if i < len(l) {
				out = append(out, l[i])
				more = true
			}
		}
		if !more {
			return out
		}
	}
}

// The stream loop delivers every payload byte to its place however the
// socket chops the stream: mid-header, mid-payload, or many blocks per
// read. Delivered bytes, the verify CRCs and the journal receipts all
// match SynthStore's content. No read reaches more than frameReadAhead
// past the end of the frame it fills, and where every read returns all
// it asks for, a frame takes at most one read, after a buffer growth
// too. A stream cut inside a frame fails the GET that frame belongs to
// with io.ErrUnexpectedEOF, after every whole frame before the cut was
// delivered.
func TestStreamLoopChoppedReads(t *testing.T) {
	const blockSize = 16 * 1024
	long := []testGet{{name: "a.bin", off: 100, length: 3*blockSize + 1000}}
	two := []testGet{{name: "a.bin", off: 0, length: 2*blockSize + 77}, {name: "b.bin", off: 5, length: 9000}}
	small := []testGet{{name: "a.bin", off: 0, length: 3000}, {name: "b.bin", off: 64, length: 1500}}
	wide := []testGet{{name: "a.bin", off: 100, length: 6*blockSize + 1500}}
	mixed := []testGet{{name: "a.bin", off: 0, length: 4 * blockSize}, {name: "b.bin", off: 0, length: 5 * 1024}}

	// splitHeaders cuts every read at the middle of the next block header.
	splitHeaders := func(starts []int) func(int) int {
		return func(pos int) int {
			for _, s := range starts {
				if cut := s + blockHeaderSize/2; cut > pos {
					return cut - pos
				}
			}
			return math.MaxInt
		}
	}
	rng := rand.New(rand.NewSource(1))
	upTo20000 := func([]int) func(int) int { return func(int) int { return 1 + rng.Intn(20000) } }
	// cutAt ends the stream at offset d into block k's frame.
	cutAt := func(k, d int) func([]int) int { return func(starts []int) int { return starts[k] + d } }
	cases := []struct {
		name   string
		gets   []testGet
		blocks []testBlock
		chop   func(starts []int) func(int) int
		cut    func(starts []int) int // nil: the whole stream arrives
	}{
		{"reads of 1-7 bytes", long, tile(0, 100, 3*blockSize+1000, blockSize),
			func([]int) func(int) int { return func(int) int { return 1 + rng.Intn(7) } }, nil},
		{"header split across two reads", two, interleave(tile(0, 0, 2*blockSize+77, blockSize), tile(1, 5, 9000, 4000)),
			splitHeaders, nil},
		{"header split after a short tail", small, interleave(tile(0, 0, 3000, 700), tile(1, 64, 1500, 300)),
			splitHeaders, nil},
		{"several blocks and the next header in one read", small, interleave(tile(0, 0, 3000, 100), tile(1, 64, 1500, 90)),
			nil, nil},
		{"zero-length block", long, append(append(tile(0, 100, blockSize, blockSize), testBlock{get: 0, off: 100 + blockSize}),
			tile(0, 100+blockSize, 2*blockSize+1000, blockSize)...), nil, nil},
		{"1 KiB blocks between full-size blocks", mixed, interleave(tile(0, 0, 4*blockSize, blockSize), tile(1, 0, 5*1024, 1024)),
			nil, nil},
		{"1 KiB blocks between full-size blocks, chopped", mixed, interleave(tile(0, 0, 4*blockSize, blockSize), tile(1, 0, 5*1024, 1024)),
			upTo20000, nil},
		{"block larger than BlockSize", long, tile(0, 100, 3*blockSize+1000, 2*blockSize+500), upTo20000, nil},
		{"block larger than the buffer, whole reads", wide, tile(0, 100, 6*blockSize+1500, 2*blockSize+500), nil, nil},
		{"EOF mid-header", two, interleave(tile(0, 0, 2*blockSize+77, blockSize), tile(1, 5, 9000, 4000)),
			upTo20000, cutAt(2, blockHeaderSize/2)},
		{"EOF right after a header", two, interleave(tile(0, 0, 2*blockSize+77, blockSize), tile(1, 5, 9000, 4000)),
			nil, cutAt(3, blockHeaderSize)},
		{"EOF mid-payload", long, tile(0, 100, 3*blockSize+1000, blockSize),
			upTo20000, cutAt(2, blockHeaderSize+blockSize/2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stream, starts := frameBlocks(tc.gets, tc.blocks)
			cut := len(stream)
			if tc.cut != nil {
				cut = tc.cut(starts)
			}
			conn := &chopConn{data: stream[:cut]}
			if tc.chop != nil {
				conn.chop = tc.chop(starts)
			}
			conn.asked = func(pos, room int) {
				// The frame being filled holds pos; past the last frame a
				// read fills a header that never comes.
				end := pos + blockHeaderSize
				if k := sort.SearchInts(starts, pos+1); k < len(starts) {
					end = starts[k]
				} else if pos < len(stream) {
					end = len(stream)
				}
				if pos+room > end+frameReadAhead {
					t.Errorf("read at %d asks for %d bytes, past the frame's end %d + read-ahead %d", pos, room, end, frameReadAhead)
				}
			}
			journal, err := OpenJournal(filepath.Join(t.TempDir(), "journal"), JournalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			c := &Client{BlockSize: blockSize, VerifyChecksums: true, Journal: journal}
			sink := sliceSink{}
			want := map[string][]byte{}
			for _, g := range tc.gets {
				sink[g.name] = make([]byte, g.off+g.length)
				want[g.name] = make([]byte, g.off+g.length)
				FillSynth(g.name, g.off, want[g.name][g.off:])
			}
			ch, ps := streamChannel(c, tc.gets, sink)
			for i, g := range tc.gets {
				ps[i].finishCtrl(crc32c.Checksum(want[g.name][g.off:]), nil)
			}
			runStreamLoop(ch, conn)

			if conn.pos != cut {
				t.Errorf("stream loop stopped at byte %d of %d", conn.pos, cut)
			}
			if tc.chop == nil && conn.reads > len(tc.blocks)+2 {
				t.Errorf("%d reads for %d blocks, each read returning all it asked for", conn.reads, len(tc.blocks))
			}
			// whole counts the blocks that arrived before the cut, and
			// received each GET's bytes in them.
			whole, received := 0, make([]int64, len(tc.gets))
			for k, blk := range tc.blocks {
				if starts[k]+blockHeaderSize+blk.n > cut {
					break
				}
				whole++
				received[blk.get] += int64(blk.n)
				g := tc.gets[blk.get]
				if !bytes.Equal(sink[g.name][blk.off:blk.off+int64(blk.n)], want[g.name][blk.off:blk.off+int64(blk.n)]) {
					t.Errorf("%s: block %d+%d differs from SynthStore", g.name, blk.off, blk.n)
				}
			}
			for i, g := range tc.gets {
				p := ps[i]
				if got := p.received.Load(); got != received[i] {
					t.Errorf("%s: received %d bytes, want %d", g.name, got, received[i])
				}
				if received[i] < g.length {
					if err := p.transportErr(); !errors.Is(err, io.ErrUnexpectedEOF) {
						t.Errorf("%s: cut stream failed the GET with %v, want %v", g.name, err, io.ErrUnexpectedEOF)
					}
					continue
				}
				if err := p.transportErr(); err != nil {
					t.Errorf("%s: %v", g.name, err)
				}
				if err := p.verifyChecksum(); err != nil {
					t.Errorf("verify: %v", err)
				}
				if !bytes.Equal(sink[g.name], want[g.name]) {
					t.Errorf("%s: delivered bytes differ from SynthStore", g.name)
				}
			}
			if err := journal.Close(); err != nil {
				t.Fatal(err)
			}
			recs, torn, err := ReadJournal(journal.Path())
			if err != nil || torn {
				t.Fatalf("ReadJournal: torn %v, %v", torn, err)
			}
			if len(recs) != whole {
				t.Fatalf("journal holds %d receipts, want %d", len(recs), whole)
			}
			for _, r := range recs {
				if c := crc32c.Checksum(want[r.Name][r.Off : r.Off+r.N]); r.CRC != c {
					t.Errorf("receipt %s %d+%d: CRC %08x, want %08x", r.Name, r.Off, r.N, r.CRC, c)
				}
			}
		})
	}
}

// After its first block a stream loop allocates nothing per block, and
// it holds one block-sized buffer: the frame reader's, one block with a
// header and the read-ahead. A second block-sized buffer fails the
// bound.
func TestStreamLoopAllocatesOneBlockBuffer(t *testing.T) {
	const blockSize = 64 * 1024
	// The frame reader's buffer, and 1 KiB for the loop's small
	// allocations: the progressConn boxed into a net.Conn.
	const bound = blockHeaderSize + blockSize + frameReadAhead + 1024
	run := func(blocks int) (allocated, mallocs uint64) {
		length := int64(blocks) * blockSize
		gets := []testGet{{name: "f", length: length}}
		stream, _ := frameBlocks(gets, tile(0, 0, length, blockSize))
		conn := &chopConn{data: stream, chop: func(int) int { return 128 * 1024 }}
		sink := sliceSink{"f": make([]byte, length)}
		ch, ps := streamChannel(&Client{BlockSize: blockSize, VerifyChecksums: true}, gets, sink)
		// The GET's receipt list is the request's own, not the loop's.
		ps[0].blocks = make([]blockCRC, 0, blocks)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		runStreamLoop(ch, conn)
		runtime.ReadMemStats(&after)
		if got := ps[0].received.Load(); got != length {
			t.Fatalf("received %d bytes, want %d", got, length)
		}
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	// MemStats also counts what other goroutines allocate meanwhile (an
	// earlier test's teardown, say), which only ever adds: the fewest
	// of a few runs is an upper bound on the loop's own allocations.
	least := func(blocks int) (allocated, mallocs uint64) {
		allocated, mallocs = math.MaxUint64, math.MaxUint64
		for range 5 {
			a, m := run(blocks)
			allocated, mallocs = min(allocated, a), min(mallocs, m)
		}
		return allocated, mallocs
	}
	bytes1, mallocs1 := least(1)
	bytes64, mallocs64 := least(64)
	if mallocs64 > mallocs1 {
		t.Errorf("64 blocks took %d allocations, 1 block %d: the loop allocates per block", mallocs64, mallocs1)
	}
	if bytes64 > bytes1 {
		t.Errorf("64 blocks allocated %d bytes, 1 block %d: the loop allocates per block", bytes64, bytes1)
	}
	if bytes64 > bound {
		t.Errorf("stream loop allocated %d bytes over 64 blocks, bound %d: one %d-byte block, its header, the %d-byte read-ahead and 1 KiB",
			bytes64, bound, blockSize, frameReadAhead)
	}
}

// BenchmarkStreamLoop measures the client's receive path alone: one
// stream loop reading a pre-framed stream from memory, 128 KiB per read
// at most (what a loopback socket read returns), into a sink that drops
// the bytes. plain and verify carry full default-size blocks, verify
// adding the per-block CRC that VerifyChecksums costs; small carries
// 3 000 blocks of 1-4 KiB, as a stream of small files does. Each case
// reports the reads it takes per block.
func BenchmarkStreamLoop(b *testing.B) {
	const blocks = 32
	full := int64(blocks) * DefaultBlockSize
	rng := rand.New(rand.NewSource(1))
	var short []testBlock
	var shortLen int64
	for range 3000 {
		n := 1024 + rng.Intn(3*1024+1)
		short = append(short, testBlock{off: shortLen, n: n})
		shortLen += int64(n)
	}
	for _, bc := range []struct {
		name   string
		verify bool
		length int64
		blocks []testBlock
	}{
		{"plain", false, full, tile(0, 0, full, DefaultBlockSize)},
		{"verify", true, full, tile(0, 0, full, DefaultBlockSize)},
		{"small", false, shortLen, short},
	} {
		gets := []testGet{{name: "f", length: bc.length}}
		stream, _ := frameBlocks(gets, bc.blocks)
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(bc.length)
			b.ReportAllocs()
			reads := 0
			for i := 0; i < b.N; i++ {
				conn := &chopConn{data: stream, chop: func(int) int { return 128 * 1024 }}
				ch, ps := streamChannel(&Client{VerifyChecksums: bc.verify}, gets, discardSink{})
				runStreamLoop(ch, conn)
				if ps[0].received.Load() != bc.length {
					b.Fatal("stream loop stopped early")
				}
				reads += conn.reads
			}
			b.ReportMetric(float64(reads)/float64(b.N*len(bc.blocks)), "reads/block")
		})
	}
}

type discardSink struct{}

func (discardSink) WriteAt(_ string, p []byte, _ int64) (int, error) { return len(p), nil }
func (discardSink) Close(string) error                               { return nil }
