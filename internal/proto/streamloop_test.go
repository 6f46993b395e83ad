package proto

import (
	"bytes"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"net"
	"path/filepath"
	"runtime"
	"testing"
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
}

func (c *chopConn) Read(p []byte) (int, error) {
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
// match SynthStore's content.
func TestStreamLoopChoppedReads(t *testing.T) {
	const blockSize = 16 * 1024
	long := []testGet{{name: "a.bin", off: 100, length: 3*blockSize + 1000}}
	two := []testGet{{name: "a.bin", off: 0, length: 2*blockSize + 77}, {name: "b.bin", off: 5, length: 9000}}
	small := []testGet{{name: "a.bin", off: 0, length: 3000}, {name: "b.bin", off: 64, length: 1500}}

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
	cases := []struct {
		name   string
		gets   []testGet
		blocks []testBlock
		chop   func(starts []int) func(int) int
	}{
		{"reads of 1-7 bytes", long, tile(0, 100, 3*blockSize+1000, blockSize),
			func([]int) func(int) int { return func(int) int { return 1 + rng.Intn(7) } }},
		{"header split across two reads", two, interleave(tile(0, 0, 2*blockSize+77, blockSize), tile(1, 5, 9000, 4000)),
			splitHeaders},
		{"header split after a short tail", small, interleave(tile(0, 0, 3000, 700), tile(1, 64, 1500, 300)),
			splitHeaders},
		{"several blocks and the next header in one read", small, interleave(tile(0, 0, 3000, 100), tile(1, 64, 1500, 90)),
			nil},
		{"zero-length block", long, append(append(tile(0, 100, blockSize, blockSize), testBlock{get: 0, off: 100 + blockSize}),
			tile(0, 100+blockSize, 2*blockSize+1000, blockSize)...), nil},
		{"block larger than BlockSize", long, tile(0, 100, 3*blockSize+1000, 2*blockSize+500),
			func([]int) func(int) int { return func(int) int { return 1 + rng.Intn(20000) } }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stream, starts := frameBlocks(tc.gets, tc.blocks)
			conn := &chopConn{data: stream}
			if tc.chop != nil {
				conn.chop = tc.chop(starts)
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
				ps[i].finishCtrl(crc32.Checksum(want[g.name][g.off:], crcTable), nil)
			}
			runStreamLoop(ch, conn)

			if conn.pos != len(stream) {
				t.Errorf("stream loop stopped at byte %d of %d", conn.pos, len(stream))
			}
			for i, g := range tc.gets {
				p := ps[i]
				if got := p.received.Load(); got != g.length {
					t.Errorf("%s: received %d bytes, want %d", g.name, got, g.length)
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
			if len(recs) != len(tc.blocks) {
				t.Fatalf("journal holds %d receipts, want %d", len(recs), len(tc.blocks))
			}
			for _, r := range recs {
				if c := crc32.Checksum(want[r.Name][r.Off:r.Off+r.N], crcTable); r.CRC != c {
					t.Errorf("receipt %s %d+%d: CRC %08x, want %08x", r.Name, r.Off, r.N, r.CRC, c)
				}
			}
		})
	}
}

// After its first block a stream loop allocates nothing per block, and
// it holds one block-sized buffer: the payload buffer the socket reads
// into. A second block-sized buffer — a read buffer as large as a
// block — fails the bound.
func TestStreamLoopAllocatesOneBlockBuffer(t *testing.T) {
	const blockSize = 64 * 1024
	// A stream loop's own allocations besides its payload buffer: the
	// read buffer and its bufio.Reader, the header scratch, and the
	// progressConn boxed into a net.Conn.
	const slack = streamReadBufSize + 4*1024
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
	if bound := uint64(blockSize + slack); bytes64 > bound {
		t.Errorf("stream loop allocated %d bytes over 64 blocks, bound one %d-byte block + %d", bytes64, blockSize, slack)
	}
}

// BenchmarkStreamLoop measures the client's receive path alone: one
// stream loop reading a pre-framed stream of full default-size blocks
// from memory, 128 KiB per read (what a loopback socket read returns),
// into a sink that drops the bytes. verify adds the per-block CRC that
// VerifyChecksums costs.
func BenchmarkStreamLoop(b *testing.B) {
	const blocks = 32
	length := int64(blocks) * DefaultBlockSize
	gets := []testGet{{name: "f", length: length}}
	stream, _ := frameBlocks(gets, tile(0, 0, length, DefaultBlockSize))
	for _, verify := range []bool{false, true} {
		name := "plain"
		if verify {
			name = "verify"
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(length)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				conn := &chopConn{data: stream, chop: func(int) int { return 128 * 1024 }}
				ch, ps := streamChannel(&Client{VerifyChecksums: verify}, gets, discardSink{})
				runStreamLoop(ch, conn)
				if ps[0].received.Load() != length {
					b.Fatal("stream loop stopped early")
				}
			}
		})
	}
}

type discardSink struct{}

func (discardSink) WriteAt(_ string, p []byte, _ int64) (int, error) { return len(p), nil }
func (discardSink) Close(string) error                               { return nil }
