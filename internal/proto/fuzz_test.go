package proto

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/didclab/eta/internal/crc32c"
	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/units"
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

// FuzzFrameReader reads an arbitrary byte stream — data, then tail
// bytes of 0xab — through a frame reader whose buffer starts sized for
// blocks of block bytes, in reads of at most 1+c*c bytes for c drawn
// from 0-255 by a PRNG seeded with chops (unlimited when chops is 0).
// It yields the frames, and ends with the error, that readFrameRef
// yields over the same bytes; it never buffers more than frameReadAhead
// past the frame it returned; and its buffer never outgrows a header,
// maxBlockSize and the read-ahead.
//
// The tail lets a few header bytes carry frames past the read-ahead,
// and keeps the seeds short: the fuzzer minimises every new input byte
// by byte, in time quadratic in its length, and a multi-KiB input
// stalls it for its whole budget.
func FuzzFrameReader(f *testing.F) {
	frame := func(off uint64, n uint32, payload int) []byte {
		var b bytes.Buffer
		_ = writeBlockHeader(&b, blockHeader{ReqID: 1, Offset: off, Length: n})
		b.Write(bytes.Repeat([]byte{0xab}, payload))
		return b.Bytes()
	}
	two := append(frame(0, 30, 30), frame(30, 40, 40)...)
	f.Add(two, uint16(0), uint64(0), uint16(4096))
	f.Add(two, uint16(0), uint64(3), uint16(0))
	f.Add(append(frame(0, 100, 100), frame(100, 20000, 0)...), uint16(20000), uint64(255), uint16(1024))
	f.Add(frame(0, 100, 50), uint16(0), uint64(0), uint16(64))
	f.Add(frame(0, 100, 0), uint16(0), uint64(2), uint16(64))
	f.Add(append(frame(0, 0, 0), frame(0, 8, 8)[:blockHeaderSize/2]...), uint16(0), uint64(0), uint16(64))
	f.Add(frame(0, maxBlockSize+1, 0), uint16(0), uint64(0), uint16(64))
	f.Add([]byte("not a block header"), uint16(0), uint64(0), uint16(64))
	f.Fuzz(func(t *testing.T, data []byte, tail uint16, chops uint64, block uint16) {
		data = append(data, bytes.Repeat([]byte{0xab}, int(tail))...)
		conn := &chopConn{data: data}
		if chops != 0 {
			// splitmix64: every seed gives a full-period sequence, so
			// the fuzzer steers read sizes through one fixed-size word.
			x := chops
			conn.chop = func(int) int {
				x += 0x9e3779b97f4a7c15
				z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
				z = (z ^ z>>27) * 0x94d049bb133111eb
				c := int((z ^ z>>31) & 0xff)
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

// FuzzPlanResume plans a resume over a small destination that spec
// describes, four bytes per file (at most eight files):
//   - size: the source size, in units of 8 bytes;
//   - shape: bits 0-2 pick the destination length (missing, shorter,
//     equal, marked at size+1, or longer by 2+ bytes), bits 3-6 scale
//     it, and bit 7 leaves a legacy marker file beside it;
//   - blocks: bits 0-1 split the file into 1-4 spans, and bits 2-5
//     journal a receipt for each span;
//   - content: bits 0-3 give a span's receipt a wrong CRC, and bits 4-7
//     leave a span's bytes on disk (a hole otherwise).
//
// A non-zero tear cuts the journal's tail by tear mod its length, and
// bit 15 garbles the last byte left. The plan must partition the
// source bytes, verify exactly the spans whose surviving receipt
// re-hashes against the disk, plan no range over a verified span, and
// skip no file unless it is left at exactly its source size.
func FuzzPlanResume(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{125, 3, 0x3f, 0xf0}, uint16(0))
	f.Add([]byte{125, 3, 0x3f, 0xf2, 64, 4, 0x07, 0x00}, uint16(0))
	f.Add([]byte{200, 0x82, 0x1e, 0xa0, 10, 2, 0, 0, 0, 4, 0, 0}, uint16(7))
	f.Add([]byte{90, 0x21, 0x3d, 0x50, 33, 0x80, 0x3c, 0xf0, 12, 0x1f, 0x01, 0x10}, uint16(0x8021))
	f.Fuzz(func(t *testing.T, spec []byte, tear uint16) {
		root := t.TempDir()
		jp := filepath.Join(root, JournalFileName)
		// One window for the whole journal: a single fsync, at Close.
		j, err := OpenJournal(jp, JournalOptions{FsyncInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		type destFile struct {
			dataset.File
			disk   []byte // the destination file; nil when missing
			marker bool
		}
		var dest []destFile
		var total units.Bytes
		for i := 0; i+4 <= len(spec) && len(dest) < 8; i += 4 {
			size, shape, blocks, content := int64(spec[i])*8, spec[i+1], spec[i+2], spec[i+3]
			df := destFile{File: dataset.File{Name: fmt.Sprintf("d%d/f%d", len(dest)%2, len(dest)), Size: units.Bytes(size)}}
			total += df.Size
			want := make([]byte, size)
			FillSynth(df.Name, 0, want)
			disk := make([]byte, size+64)
			spans := int64(blocks&3) + 1
			for k := int64(0); k < spans; k++ {
				lo, hi := size*k/spans, size*(k+1)/spans
				if content&(0x10<<k) != 0 {
					copy(disk[lo:hi], want[lo:hi])
				}
				if blocks&(4<<k) != 0 && hi > lo {
					crc := crc32c.Checksum(want[lo:hi])
					if content&(1<<k) != 0 {
						crc = ^crc
					}
					j.Append(df.Name, lo, hi-lo, crc)
				}
			}
			scale := int64(shape>>3) & 15
			switch shape & 7 {
			case 0:
				disk = nil
			case 1:
				disk = disk[:size*scale/16]
			case 2:
				disk = disk[:size]
			case 3, 5, 6, 7:
				disk = disk[:size+1]
			case 4:
				disk = disk[:size+2+scale]
			}
			df.disk, df.marker = disk, shape&0x80 != 0
			path := filepath.Join(root, filepath.FromSlash(df.Name))
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if disk != nil {
				if err := os.WriteFile(path, disk, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if df.marker {
				if err := os.WriteFile(path+PartialMarkerSuffix, nil, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			dest = append(dest, df)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if tear != 0 {
			jb, err := os.ReadFile(jp)
			if err != nil {
				t.Fatal(err)
			}
			jb = jb[:len(jb)-int(tear&0x7fff)%len(jb)]
			if tear&0x8000 != 0 && len(jb) > 0 {
				jb[len(jb)-1] ^= 0xff
			}
			if err := os.WriteFile(jp, jb, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		// The receipts that survived the tear, checked against the disk
		// the way a resume must check them.
		kept, _, err := ReadJournal(jp)
		if err != nil {
			t.Fatal(err)
		}
		files := make([]dataset.File, len(dest))
		for i, df := range dest {
			files[i] = df.File
		}
		plan, err := PlanResume(root, files, ResumeOptions{JournalPath: jp})
		if err != nil {
			t.Fatal(err)
		}
		if plan.Skipped+plan.Verified+plan.Refetch != total {
			t.Fatalf("skipped %d + verified %d + refetch %d != %d", plan.Skipped, plan.Verified, plan.Refetch, total)
		}
		var verified units.Bytes
		for _, df := range dest {
			size := int64(df.Size)
			recovered := df.disk != nil && (df.marker || int64(len(df.disk)) > size)
			// good marks the bytes a surviving receipt proves present.
			good := make([]bool, size)
			proven := int64(0)
			if recovered {
				for _, r := range kept {
					if r.Name != df.Name || r.Off+r.N > size || r.Off+r.N > int64(len(df.disk)) ||
						crc32c.Checksum(df.disk[r.Off:r.Off+r.N]) != r.CRC {
						continue
					}
					for b := r.Off; b < r.Off+r.N; b++ {
						if !good[b] {
							good[b] = true
							proven++
						}
					}
				}
				verified += units.Bytes(proven)
			}
			ranges, planned := plan.ByFile[df.Name]
			end := int64(-1)
			for _, r := range ranges {
				lo, hi := int64(r.Offset), int64(r.Offset+r.Remaining())
				if lo <= end || (hi == lo && size > 0) {
					t.Errorf("%s: range %+v overlaps or follows an earlier one, or is empty", df.Name, r)
				}
				end = hi - 1
				for b := lo; b < hi; b++ {
					if good[b] {
						t.Fatalf("%s: range [%d,%d) refetches verified byte %d", df.Name, lo, hi, b)
					}
				}
			}
			path := filepath.Join(root, filepath.FromSlash(df.Name))
			if _, err := os.Stat(path + PartialMarkerSuffix); !os.IsNotExist(err) {
				t.Errorf("%s: legacy marker left after planning (stat err: %v)", df.Name, err)
			}
			info, err := os.Stat(path)
			switch {
			case !planned:
				if err != nil || info.Size() != size {
					t.Errorf("%s skipped, but it is not %d bytes (stat err %v)", df.Name, size, err)
				}
				if !(df.disk != nil && !recovered && int64(len(df.disk)) == size) && !(recovered && proven == size) {
					t.Errorf("%s skipped with %d of %d bytes proven (length %d, marker %v)", df.Name, proven, size, len(df.disk), df.marker)
				}
			case recovered:
				// Gaps left: the file must stay marked in flight.
				if err != nil || info.Size() <= size {
					t.Errorf("%s has gaps left but is no longer marked (stat err %v)", df.Name, err)
				}
			}
		}
		if plan.Verified != verified {
			t.Fatalf("plan verified %d bytes, the surviving receipts prove %d", plan.Verified, verified)
		}
	})
}

// fuzzReceipts are the receipts FuzzReadJournal journals before it
// cuts the file.
var fuzzReceipts = []Receipt{
	{Name: "a.dat", Off: 0, N: 256 << 10, CRC: 0xDEADBEEF},
	{Name: "d/b", Off: 1 << 40, N: 1, CRC: 0},
	{Name: "a.dat", Off: 256 << 10, N: 1234, CRC: 7},
}

// journalBytes journals recs through Journal.Append into a new journal
// at path and returns the file's bytes.
func journalBytes(tb testing.TB, path string, recs []Receipt) []byte {
	tb.Helper()
	j, err := OpenJournal(path, JournalOptions{FsyncInterval: time.Hour})
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range recs {
		j.Append(r.Name, r.Off, r.N, r.CRC)
	}
	if err := j.Close(); err != nil {
		tb.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// FuzzReadJournal journals the first n (mod 4) of fuzzReceipts through
// Journal.Append, cuts the file after cut bytes and appends tail: the
// shape a crash, or a crash and then garbage, leaves. ReadJournal must
// not fail; it must return every receipt whose record lies wholly
// before the cut, in order, then only whole records that follow them
// in the file byte for byte as Append encodes them, and report torn
// unless it decoded the whole file. OpenJournal then repairs the tail:
// one more Append gives the same receipts plus the new one, untorn.
func FuzzReadJournal(f *testing.F) {
	whole := journalBytes(f, filepath.Join(f.TempDir(), JournalFileName), fuzzReceipts[2:])
	f.Add(uint8(3), uint16(0xffff), []byte{})                   // intact
	f.Add(uint8(0), uint16(0), []byte{})                        // empty file
	f.Add(uint8(3), uint16(40), []byte{})                       // cut inside the second record
	f.Add(uint8(3), uint16(37), []byte{recMagic, 0})            // a record cut in its length
	f.Add(uint8(2), uint16(4), []byte("RNL1\n"))                // the tail completes the header
	f.Add(uint8(1), uint16(0xffff), whole[len(journalHeader):]) // the tail is a whole record
	f.Add(uint8(2), uint16(60), bytes.Repeat([]byte{0xFF}, 24)) // garbage after a cut
	f.Fuzz(func(t *testing.T, n uint8, cut uint16, tail []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, JournalFileName)
		written := fuzzReceipts[:int(n)%(len(fuzzReceipts)+1)]
		jb := journalBytes(t, path, written)
		c := min(int(cut), len(jb))
		file := append(jb[:c:c], tail...)
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, torn, err := ReadJournal(path)
		if err != nil {
			t.Fatalf("ReadJournal failed on a cut journal: %v", err)
		}
		k, end := 0, len(journalHeader)
		for k < len(written) && end+recFixedSize+len(written[k].Name)+4 <= c {
			end += recFixedSize + len(written[k].Name) + 4
			k++
		}
		if len(recs) < k || !slices.Equal(recs[:k], written[:k]) {
			t.Fatalf("decoded %+v, want %+v first", recs, written[:k])
		}
		headerOK := bytes.HasPrefix(file, journalHeader)
		if headerOK {
			enc := journalBytes(t, filepath.Join(dir, "encoded"), recs[k:])[len(journalHeader):]
			if !bytes.HasPrefix(file[end:], enc) {
				t.Fatalf("decoded %+v after the written receipts, which the file does not hold as whole records", recs[k:])
			}
			end += len(enc)
		} else if len(recs) > 0 {
			t.Fatalf("decoded %d receipts from a file without the header", len(recs))
		}
		if want := !headerOK || end != len(file); torn != want {
			t.Fatalf("torn = %v, want %v (%d of %d bytes decoded)", torn, want, end, len(file))
		}

		j, err := OpenJournal(path, JournalOptions{FsyncInterval: time.Hour})
		if err != nil {
			t.Fatalf("OpenJournal on a cut journal: %v", err)
		}
		more := Receipt{Name: "z", Off: 7, N: 9, CRC: 42}
		j.Append(more.Name, more.Off, more.N, more.CRC)
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		got, torn, err := ReadJournal(path)
		if want := append(slices.Clip(recs), more); err != nil || torn || !slices.Equal(got, want) {
			t.Fatalf("after repair and one Append: %+v torn=%v err=%v, want %+v", got, torn, err, want)
		}
	})
}

// FuzzServerHandshake feeds one arbitrary first line to the server's
// connection handler over net.Pipe, next to a live control session
// whose id a DATA line may name; pad appends that many 'x' bytes, so
// lines reach past maxLineLen without long seeds. The server must not
// panic. Within the handshake deadline it must answer an ERR line or
// close the conn, with two exceptions: a complete HELLO line gets
// "OK <sid>", and a DATA line that names the live session and a valid
// index attaches silently, and the conn is closed once that session
// ends. Every handler goroutine must return, and the goroutine count
// must fall back to where the exec started.
func FuzzServerHandshake(f *testing.F) {
	for _, line := range []string{
		"HELLO", "HELLO extra fields", "hello", "DATA 1 0", "DATA 1 255",
		"DATA 1 256", "DATA 1 -1", "DATA 1 +3", "DATA 01 0", "DATA 2 0",
		"DATA 18446744073709551616 0", "DATA 1", "DATA 1 0 0", "DATA x y",
		"OPEN 4", "LIST", "QUIT", "GET 1 a%20b 0 10", "", " \t ", "\r",
		"DATA %31 0", "a%zz%00 b%2", "\x00\xff DATA",
	} {
		f.Add(line, true, uint16(0))
	}
	f.Add("DATA 1 0", false, uint16(0)) // the peer hangs up mid-line
	f.Add("HELLO ", true, uint16(maxLineLen-7))
	f.Add("HELLO ", true, uint16(maxLineLen-6))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	const handshake = 2 * time.Second
	srv, err := Serve(ln, ServerConfig{
		Store:        NewSynthStore(dataset.NewGenerator(1).Uniform(2, 4*units.KB)),
		StallTimeout: handshake,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })
	f.Fuzz(func(t *testing.T, line string, newline bool, pad uint16) {
		line, _, _ = strings.Cut(line, "\n")
		line += strings.Repeat("x", int(pad))
		// Every exec starts from an empty server whose next session is
		// 1, so a seed's "DATA 1 ..." names the live session.
		srv.mu.Lock()
		left := len(srv.sessions)
		srv.nextSID = 0
		srv.mu.Unlock()
		if left != 0 {
			t.Fatalf("%d sessions left from the previous exec", left)
		}
		base := runtime.NumGoroutine()
		deadline := time.Now().Add(handshake + time.Second)
		var handlers sync.WaitGroup
		handle := func() net.Conn {
			client, server := net.Pipe()
			_ = client.SetDeadline(deadline)
			handlers.Add(1)
			go func() {
				defer handlers.Done()
				srv.handleConn(server)
			}()
			return client
		}

		ctrl := handle()
		defer ctrl.Close()
		if _, err := io.WriteString(ctrl, "HELLO\n"); err != nil {
			t.Fatal(err)
		}
		verb, fields, err := readLine(bufio.NewReader(ctrl))
		if err != nil || verb != respOK || len(fields) != 1 {
			t.Fatalf("control HELLO answered %q %q (%v)", verb, fields, err)
		}
		sid, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			t.Fatal(err)
		}

		var want string // what a conforming server does with line
		parts := strings.Fields(line)
		switch {
		case !newline || len(line)+1 > maxLineLen || len(parts) == 0:
			want = "close"
		case parts[0] == "HELLO":
			want = "ok"
		case parts[0] == cmdData && len(parts) == 3:
			s, err1 := strconv.ParseUint(parts[1], 10, 64)
			i, err2 := strconv.Atoi(parts[2])
			if err1 == nil && err2 == nil && s == sid && i >= 0 && i < maxStreams {
				want = "attach"
			} else {
				want = "err"
			}
		default:
			want = "err"
		}

		conn := handle()
		defer conn.Close()
		msg := line
		if newline {
			msg += "\n"
		}
		// A write the server cuts short by closing is one of the
		// allowed outcomes; the read below tells them apart.
		_, _ = io.WriteString(conn, msg)
		if !newline {
			conn.Close()
		}
		if want == "attach" {
			// Ending the session must close its streams.
			ctrl.Close()
		}
		// The reply's first line, then for every outcome but "ok" the
		// close that must follow it.
		br := bufio.NewReader(conn)
		reply, err := br.ReadString('\n')
		if err == nil && want != "ok" {
			var rest []byte
			rest, err = io.ReadAll(io.LimitReader(br, 1<<10))
			reply += string(rest)
		}
		if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrClosedPipe) {
			t.Fatalf("line %q (%s): reading the reply: %v (after %q)", line, want, err, reply)
		}
		isErrLine := strings.HasPrefix(reply, respErr+" ") && strings.Count(reply, "\n") == 1
		switch want {
		case "ok":
			if !strings.HasPrefix(reply, respOK+" ") || !strings.HasSuffix(reply, "\n") {
				t.Fatalf("line %q: reply %q, want OK <sid>", line, reply)
			}
		case "err":
			if !isErrLine {
				t.Fatalf("line %q: reply %q, want one ERR line and a close", line, reply)
			}
		case "close":
			if reply != "" {
				t.Fatalf("line %q: reply %q, want a close", line, reply)
			}
		case "attach":
			// The session can end before the DATA line is looked up, so
			// an "unknown session" refusal is allowed too.
			if reply != "" && !isErrLine {
				t.Fatalf("line %q: reply %q, want a close", line, reply)
			}
		}
		ctrl.Close()
		conn.Close()

		done := make(chan struct{})
		go func() { handlers.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(time.Until(deadline)):
			t.Fatalf("line %q: a connection handler is still running", line)
		}
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("line %q: %d goroutines, %d before the exec", line, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	})
}
