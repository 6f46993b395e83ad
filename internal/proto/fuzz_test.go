package proto

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
)

// The fuzz targets double as robustness tests on their seed corpora
// under plain `go test`; run `go test -fuzz FuzzParseGet ./internal/proto`
// to explore further.

func FuzzParseGet(f *testing.F) {
	f.Add("1 file.dat 0 100")
	f.Add("4294967295 a%20b 9223372036854775807 0")
	f.Add("x y z w")
	f.Add("")
	f.Fuzz(func(t *testing.T, line string) {
		fields := strings.Fields(line)
		req, err := parseGet(fields)
		if err != nil {
			return
		}
		// Anything accepted must round-trip through the formatter.
		out := formatGet(req)
		verb, fields2, err := readLine(bufio.NewReader(strings.NewReader(out)))
		if err != nil || verb != cmdGet {
			t.Fatalf("formatted GET unreadable: %q (%v)", out, err)
		}
		req2, err := parseGet(fields2)
		if err != nil {
			t.Fatalf("formatted GET unparseable: %q (%v)", out, err)
		}
		// Every field, the name included, survives exactly.
		if req2 != req {
			t.Fatalf("round trip changed request: %+v vs %+v", req, req2)
		}
	})
}

func FuzzReadBlockHeader(f *testing.F) {
	var good bytes.Buffer
	_ = writeBlockHeader(&good, blockHeader{ReqID: 7, Offset: 1024, Length: 512})
	f.Add(good.Bytes())
	f.Add([]byte{})
	f.Add(make([]byte, blockHeaderSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := readBlockHeader(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted headers re-encode to the identical prefix bytes.
		var buf bytes.Buffer
		if err := writeBlockHeader(&buf, h); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data[:blockHeaderSize]) {
			t.Fatalf("header did not round trip: %x vs %x", buf.Bytes(), data[:blockHeaderSize])
		}
	})
}

func FuzzReadLine(f *testing.F) {
	f.Add("GET 1 a 0 1\nrest")
	f.Add("\n")
	f.Add("   \n")
	f.Add("DONE 3 12345\n")
	f.Fuzz(func(t *testing.T, input string) {
		if !strings.Contains(input, "\n") {
			return // readLine blocks without a newline; EOF error path is fine
		}
		verb, fields, err := readLine(bufio.NewReader(strings.NewReader(input)))
		if err != nil {
			return
		}
		if verb == "" {
			t.Fatal("readLine returned empty verb without error")
		}
		for _, field := range fields {
			if strings.ContainsAny(field, " \t\n") {
				t.Fatalf("field %q contains whitespace", field)
			}
		}
	})
}

// FuzzParseEndpoints: any -addrs value is rejected or parsed, never a
// panic; every accepted endpoint has an address and a weight in
// [1, maxEndpointWeight]; and for a small accepted list, one window of
// Σweights picks from a fresh pool hands each endpoint exactly its
// weight.
func FuzzParseEndpoints(f *testing.F) {
	f.Add("host1:7001")
	f.Add("host1:7001=3,host2:7002")
	f.Add("[::1]:7001:3,a:1:2")
	f.Add("a:1=4611686018427387904,b:1=4611686018427387904")
	f.Add(" , =")
	f.Fuzz(func(t *testing.T, list string) {
		eps, err := ParseEndpoints(list)
		if err != nil {
			return
		}
		sum := 0
		for _, ep := range eps {
			if ep.Addr == "" || ep.Weight < 1 || ep.Weight > maxEndpointWeight {
				t.Fatalf("ParseEndpoints(%q) accepted %+v", list, ep)
			}
			sum += ep.Weight
		}
		if len(eps) > 8 || sum > 64 {
			return
		}
		pool, err := NewEndpointPool(eps...)
		if err != nil {
			t.Fatalf("NewEndpointPool(%+v): %v", eps, err)
		}
		picks := make([]int, len(eps))
		for i := 0; i < sum; i++ {
			idx, _ := pool.Pick()
			picks[idx]++
		}
		for i, ep := range eps {
			if picks[i] != ep.Weight {
				t.Fatalf("%q: endpoint %d picked %d times in a window of %d picks, weight %d",
					list, i, picks[i], sum, ep.Weight)
			}
		}
	})
}

// rangeSink fails the test on any write outside [lo, hi) or through a
// buffer larger than any block may be.
type rangeSink struct {
	t      *testing.T
	lo, hi int64
}

func (s rangeSink) WriteAt(name string, p []byte, off int64) (int, error) {
	if off < s.lo || off+int64(len(p)) > s.hi {
		s.t.Errorf("write of %d bytes at %d outside the GET's range [%d, %d)", len(p), off, s.lo, s.hi)
	}
	if cap(p) > maxBlockSize {
		s.t.Errorf("payload buffer of %d bytes, above the %d-byte limit", cap(p), maxBlockSize)
	}
	return len(p), nil
}

func (rangeSink) Close(string) error { return nil }

// FuzzStreamLoop feeds arbitrary bytes to one data stream of a channel
// with one pending GET, for [100, 150) of a file: the stream loop never
// panics, every sink write lies inside the GET's range, and no payload
// buffer grows past maxBlockSize.
func FuzzStreamLoop(f *testing.F) {
	block := func(id uint32, off uint64, n uint32) []byte {
		var b bytes.Buffer
		_ = writeBlockHeader(&b, blockHeader{ReqID: id, Offset: off, Length: n})
		b.Write(bytes.Repeat([]byte{0xab}, int(min(n, 64))))
		return b.Bytes()
	}
	f.Add(block(1, 100, 50))
	f.Add(append(block(1, 100, 10), block(1, 110, 40)...))
	f.Add(block(1, 0, 8))
	f.Add(block(1, 140, 20))
	f.Add(block(1, 1<<63, 8))
	f.Add(block(2, 100, 8))
	f.Add(block(1, 100, 0))
	f.Add(block(1, 100, maxBlockSize+1))
	f.Add(block(2, 100, maxBlockSize))
	f.Add([]byte("not a block header"))
	f.Fuzz(func(t *testing.T, data []byte) {
		const off, length = 100, 50
		ch, _ := streamChannel(&Client{VerifyChecksums: true}, []testGet{{name: "f", off: off, length: length}},
			rangeSink{t: t, lo: off, hi: off + length})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, w := net.Pipe()
		go func() {
			_, _ = w.Write(data)
			w.Close()
		}()
		ch.wg.Add(1)
		ch.streamLoop(r) // returns once the stream ends or breaks the protocol
		r.Close()
		runtime.ReadMemStats(&after)
		// The first buffer is a header, one default block and the
		// read-ahead; the last holds at most a header, maxBlockSize and
		// the read-ahead. A buffer is only outgrown once the frame it
		// was sized for arrived whole from data, and the read-ahead is
		// below a block, so every other buffer sums to under
		// 2*len(data). The last MiB is slack for the runtime.
		bound := uint64(2*len(data) + 2*(blockHeaderSize+frameReadAhead) + DefaultBlockSize + maxBlockSize + 1<<20)
		if grown := after.TotalAlloc - before.TotalAlloc; grown > bound {
			t.Errorf("stream loop allocated %d bytes, bound %d", grown, bound)
		}
	})
}

// readFrameRef is the frame decoder the frame reader must agree with:
// readBlockHeader, the block size limit, then io.ReadFull for the
// payload. A stream that ends after a header ends inside its frame.
func readFrameRef(r io.Reader) (blockHeader, []byte, error) {
	h, err := readBlockHeader(r)
	if err != nil {
		return blockHeader{}, nil, err
	}
	if h.Length > maxBlockSize {
		return blockHeader{}, nil, fmt.Errorf("proto: block of %d bytes above the %d-byte limit", h.Length, maxBlockSize)
	}
	payload := make([]byte, h.Length)
	if _, err := io.ReadFull(r, payload); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return blockHeader{}, nil, err
	}
	return h, payload, nil
}

// FuzzFrameReader reads an arbitrary byte stream through a frame reader
// whose buffer starts sized for blocks of block bytes, in reads of at
// most 1+c*c bytes for c cycling through chops (unlimited when chops is
// empty). It yields the frames, and ends with the error, that
// readFrameRef yields over the same bytes; it never buffers more than
// frameReadAhead past the frame it returned; and its buffer never
// outgrows a header, maxBlockSize and the read-ahead.
func FuzzFrameReader(f *testing.F) {
	frame := func(off uint64, n uint32, payload int) []byte {
		var b bytes.Buffer
		_ = writeBlockHeader(&b, blockHeader{ReqID: 1, Offset: off, Length: n})
		b.Write(bytes.Repeat([]byte{0xab}, payload))
		return b.Bytes()
	}
	two := append(frame(0, 3000, 3000), frame(3000, 40, 40)...)
	f.Add(two, []byte{}, uint16(4096))
	f.Add(two, []byte{3, 1, 200}, uint16(0))
	f.Add(append(frame(0, 1024, 1024), frame(1024, 20000, 20000)...), []byte{255, 7}, uint16(1024))
	f.Add(frame(0, 100, 50), []byte{}, uint16(64))
	f.Add(frame(0, 100, 0), []byte{2}, uint16(64))
	f.Add(append(frame(0, 0, 0), frame(0, 8, 8)[:blockHeaderSize/2]...), []byte{}, uint16(64))
	f.Add(frame(0, maxBlockSize+1, 0), []byte{}, uint16(64))
	f.Add([]byte("not a block header"), []byte{}, uint16(64))
	f.Fuzz(func(t *testing.T, data, chops []byte, block uint16) {
		conn := &chopConn{data: data}
		if len(chops) > 0 {
			i := 0
			conn.chop = func(int) int {
				c := int(chops[i%len(chops)])
				i++
				return 1 + c*c
			}
		}
		fr := frameReader{r: conn, buf: make([]byte, blockHeaderSize+int(block)+frameReadAhead)}
		ref := bytes.NewReader(data)
		for k := 0; ; k++ {
			wantH, wantP, wantErr := readFrameRef(ref)
			h, p, err := fr.next()
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("frame %d: error %v, reference %v", k, err, wantErr)
			}
			if err != nil {
				return
			}
			if h != wantH || !bytes.Equal(p, wantP) {
				t.Fatalf("frame %d: %+v with %d payload bytes, reference %+v with %d", k, h, len(p), wantH, len(wantP))
			}
			if cap(p) != len(p) {
				t.Fatalf("frame %d: payload of %d bytes reaches %d past its end", k, len(p), cap(p)-len(p))
			}
			if ahead := fr.hi - fr.lo; ahead > frameReadAhead {
				t.Fatalf("frame %d: %d bytes read past it, read-ahead %d", k, ahead, frameReadAhead)
			}
			if max := blockHeaderSize + maxBlockSize + frameReadAhead; len(fr.buf) > max {
				t.Fatalf("frame %d: buffer of %d bytes, bound %d", k, len(fr.buf), max)
			}
		}
	})
}
