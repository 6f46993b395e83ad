package proto

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/didclab/eta/internal/crc32c"
	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/obs"
	"github.com/didclab/eta/internal/units"
)

func startServer(t *testing.T, cfg ServerConfig) *Server {
	t.Helper()
	srv, err := ListenAndServe("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func synthServer(t *testing.T, ds dataset.Dataset, mutate func(*ServerConfig)) *Server {
	t.Helper()
	cfg := ServerConfig{Store: NewSynthStore(ds), Logf: t.Logf}
	if mutate != nil {
		mutate(&cfg)
	}
	return startServer(t, cfg)
}

// writeBlockHeader frames h for a test stream.
func writeBlockHeader(w io.Writer, h blockHeader) error {
	var buf [blockHeaderSize]byte
	encodeBlockHeader(buf[:], h)
	_, err := w.Write(buf[:])
	return err
}

// readBlockHeader reads and decodes one header from r: with
// io.ReadFull for the payload, the reference the frame reader is fuzzed
// against (FuzzFrameReader).
func readBlockHeader(r io.Reader) (blockHeader, error) {
	var buf [blockHeaderSize]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return blockHeader{}, err
	}
	return decodeBlockHeader(buf[:])
}

func TestBlockHeaderRoundTrip(t *testing.T) {
	f := func(id uint32, off uint64, length uint32) bool {
		var buf bytes.Buffer
		h := blockHeader{ReqID: id, Offset: off, Length: length}
		if err := writeBlockHeader(&buf, h); err != nil {
			return false
		}
		got, err := readBlockHeader(&buf)
		return err == nil && got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBlockHeaderBadMagic(t *testing.T) {
	buf := make([]byte, blockHeaderSize)
	if _, err := readBlockHeader(bytes.NewReader(buf)); err == nil {
		t.Error("accepted zero magic")
	}
}

func TestGetLineRoundTrip(t *testing.T) {
	f := func(id uint32, offRaw, lenRaw uint32, nameRaw uint8) bool {
		names := []string{"a.dat", "dir/b.dat", "with space.bin", "span0/file00001.dat",
			"x%20y", "tab\tname", "nb\u00a0sp.dat"}
		req := getRequest{
			ID:     id,
			Name:   names[int(nameRaw)%len(names)],
			Offset: int64(offRaw),
			Length: int64(lenRaw),
		}
		line := formatGet(req)
		br := bufio.NewReader(strings.NewReader(line))
		verb, fields, err := readLine(br)
		if err != nil || verb != cmdGet {
			return false
		}
		got, err := parseGet(fields)
		return err == nil && got == req
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseGetErrors(t *testing.T) {
	bad := [][]string{
		{},
		{"1", "f"},
		{"x", "f", "0", "1"},
		{"1", "f", "-1", "1"},
		{"1", "f", "0", "-1"},
		{"1", "bad%zzescape", "0", "1"},
		{"1", "cut%2", "0", "1"},
	}
	for _, fields := range bad {
		if _, err := parseGet(fields); err == nil {
			t.Errorf("parseGet(%v) accepted", fields)
		}
	}
}

func TestSynthStoreDeterministicAndSeekable(t *testing.T) {
	ds := dataset.Dataset{Files: []dataset.File{{Name: "x.dat", Size: 10000}}}
	s := NewSynthStore(ds)
	whole := make([]byte, 10000)
	if n, err := s.ReadAt("x.dat", whole, 0); err != nil || n != 10000 {
		t.Fatalf("full read: n=%d err=%v", n, err)
	}
	part := make([]byte, 100)
	if _, err := s.ReadAt("x.dat", part, 4321); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(part, whole[4321:4421]) {
		t.Error("seeked read disagrees with sequential content")
	}
	if _, err := s.ReadAt("nope", part, 0); err == nil {
		t.Error("unknown file accepted")
	}
	if _, err := s.ReadAt("x.dat", part, 10001); err == nil {
		t.Error("offset beyond EOF accepted")
	}
	// Short read at the tail.
	if n, err := s.ReadAt("x.dat", part, 9950); err != nil || n != 50 {
		t.Errorf("tail read: n=%d err=%v", n, err)
	}
}

func TestListMatchesStore(t *testing.T) {
	ds := dataset.NewGenerator(1).ManySmall(20, units.KB, 10*units.KB)
	srv := synthServer(t, ds, nil)
	client := &Client{Addr: srv.Addr()}
	files, err := client.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 20 {
		t.Fatalf("listed %d files, want 20", len(files))
	}
	byName := map[string]units.Bytes{}
	for _, f := range ds.Files {
		byName[f.Name] = f.Size
	}
	for _, f := range files {
		if byName[f.Name] != f.Size {
			t.Errorf("file %s size %d, want %d", f.Name, f.Size, byName[f.Name])
		}
	}
}

func TestFetchIntegritySingleStream(t *testing.T) {
	ds := dataset.NewGenerator(2).ManySmall(10, 10*units.KB, 200*units.KB)
	srv := synthServer(t, ds, nil)
	client := &Client{Addr: srv.Addr()}
	ch, err := client.OpenChannel(1)
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	sink := NewVerifySink()
	res, err := ch.Fetch(ds.Files, 4, sink)
	if err != nil {
		t.Fatal(err)
	}
	if res.Files != 10 || res.Bytes != ds.TotalSize() {
		t.Errorf("fetched %d files %v bytes, want 10 / %v", res.Files, res.Bytes, ds.TotalSize())
	}
	if bad := sink.Corrupt(); len(bad) > 0 {
		t.Errorf("corrupted ranges: %v", bad)
	}
	for _, f := range ds.Files {
		if got := sink.BytesFor(f.Name); got != int64(f.Size) {
			t.Errorf("%s: %d of %d bytes", f.Name, got, f.Size)
		}
	}
}

func TestFetchIntegrityStriped(t *testing.T) {
	// Files larger than the block size force striping across streams.
	ds := dataset.NewGenerator(3).Uniform(4, 3*units.MB)
	srv := synthServer(t, ds, func(c *ServerConfig) { c.BlockSize = 128 * 1024 })
	client := &Client{Addr: srv.Addr()}
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
		t.Errorf("striped transfer corrupted: %v", bad)
	}
	for _, f := range ds.Files {
		if got := sink.BytesFor(f.Name); got != int64(f.Size) {
			t.Errorf("%s: %d of %d bytes", f.Name, got, f.Size)
		}
	}
}

func TestConcurrentChannels(t *testing.T) {
	ds := dataset.NewGenerator(4).ManySmall(40, 50*units.KB, 300*units.KB)
	srv := synthServer(t, ds, nil)
	client := &Client{Addr: srv.Addr()}
	sink := NewVerifySink()

	const channels = 4
	var wg sync.WaitGroup
	errs := make([]error, channels)
	for i := 0; i < channels; i++ {
		part := ds.Files[i*10 : (i+1)*10]
		wg.Add(1)
		go func(i int, files []dataset.File) {
			defer wg.Done()
			ch, err := client.OpenChannel(2)
			if err != nil {
				errs[i] = err
				return
			}
			defer ch.Close()
			_, errs[i] = ch.Fetch(files, 4, sink)
		}(i, part)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("channel %d: %v", i, err)
		}
	}
	if bad := sink.Corrupt(); len(bad) > 0 {
		t.Errorf("concurrent transfer corrupted: %v", bad)
	}
	for _, f := range ds.Files {
		if got := sink.BytesFor(f.Name); got != int64(f.Size) {
			t.Errorf("%s: moved %d of %d bytes", f.Name, got, f.Size)
		}
	}
}

func TestParallelismBeatsSingleStreamUnderPerStreamCap(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	ds := dataset.NewGenerator(5).Uniform(2, 2*units.MB)
	srv := synthServer(t, ds, func(c *ServerConfig) {
		c.PerStreamRate = 20 * units.Mbps
		c.BlockSize = 64 * 1024
	})
	run := func(par int) time.Duration {
		client := &Client{Addr: srv.Addr()}
		ch, err := client.OpenChannel(par)
		if err != nil {
			t.Fatal(err)
		}
		defer ch.Close()
		start := time.Now()
		if _, err := ch.Fetch(ds.Files, 2, NewVerifySink()); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	one := run(1)
	four := run(4)
	if four >= one {
		t.Errorf("4 streams (%v) not faster than 1 (%v) under per-stream cap", four, one)
	}
}

func TestPipeliningHidesControlRTT(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	ds := dataset.NewGenerator(6).Uniform(20, 8*units.KB)
	srv := synthServer(t, ds, func(c *ServerConfig) {
		c.ControlRTT = 30 * time.Millisecond
	})
	run := func(pipe int) time.Duration {
		client := &Client{Addr: srv.Addr()}
		ch, err := client.OpenChannel(1)
		if err != nil {
			t.Fatal(err)
		}
		defer ch.Close()
		start := time.Now()
		if _, err := ch.Fetch(ds.Files, pipe, NewVerifySink()); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	unpipelined := run(1)
	pipelined := run(10)
	// 20 files × 30 ms RTT ≈ 600 ms unpipelined; pipelining hides most
	// of it.
	if pipelined > unpipelined*2/3 {
		t.Errorf("pipelining saved too little: q=1 %v vs q=10 %v", unpipelined, pipelined)
	}
}

// Client.List refuses a FILE line whose name is a malformed escape.
func TestListRejectsMalformedName(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		br := bufio.NewReader(c)
		for _, reply := range []string{respOK + " 1\n", respFile + " 10 bad%zz\n" + respEnd + "\n"} {
			if _, err := br.ReadString('\n'); err != nil { // HELLO, then LIST
				return
			}
			if _, err := io.WriteString(c, reply); err != nil {
				return
			}
		}
	}()
	if files, err := (&Client{Addr: ln.Addr().String()}).List(); err == nil {
		t.Fatalf("List accepted a malformed name: %v", files)
	}
}

func TestDirStoreAndDirSinkRoundTrip(t *testing.T) {
	srcDir := t.TempDir()
	dstDir := t.TempDir()
	want := map[string][]byte{
		"a.bin":       bytes.Repeat([]byte{0xAB}, 1000),
		"sub/b.bin":   []byte("hello transfer world"),
		"sub/c empty": {},
		// Names that start with two dots are not ".." path elements.
		"..config": []byte("dotdot"),
		"sub/..rc": []byte("nested dotdot"),
		// An escape sequence and whitespace other than a space are
		// carried as themselves on the control line.
		"x%20y":          []byte("percent"),
		"tab\tname":      []byte("tab"),
		"nb\u00a0sp.dat": []byte("no-break space"),
	}
	for name, content := range want {
		path := filepath.Join(srcDir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	srv := startServer(t, ServerConfig{Store: DirStore{Root: srcDir}, Logf: t.Logf})
	client := &Client{Addr: srv.Addr()}
	files, err := client.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(want) {
		t.Fatalf("listed %d files, want %d", len(files), len(want))
	}
	ch, err := client.OpenChannel(2)
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	sink := NewDirSink(dstDir)
	if _, err := ch.Fetch(files, 3, sink); err != nil {
		t.Fatal(err)
	}
	for name, content := range want {
		got, err := os.ReadFile(filepath.Join(dstDir, filepath.FromSlash(name)))
		if err != nil {
			t.Fatalf("reading %s: %v", name, err)
		}
		if !bytes.Equal(got, content) {
			t.Errorf("%s: content mismatch (%d vs %d bytes)", name, len(got), len(content))
		}
	}
}

// escapingNames leave the root after cleaning: store and sink share
// one rule for them.
var escapingNames = []string{"../etc/passwd", "a/../../b", "/etc/passwd", ".."}

func TestDirStorePathEscapeRejected(t *testing.T) {
	s := DirStore{Root: t.TempDir()}
	buf := make([]byte, 10)
	for _, name := range escapingNames {
		if _, err := s.ReadAt(name, buf, 0); err == nil {
			t.Errorf("ReadAt(%q) accepted", name)
		}
		if _, _, ok := s.Version(name); ok {
			t.Errorf("Version(%q) accepted", name)
		}
	}
}

func TestDirSinkPathEscapeRejected(t *testing.T) {
	s := NewDirSink(t.TempDir())
	for _, name := range escapingNames {
		if _, err := s.WriteAt(name, []byte("x"), 0); err == nil {
			t.Errorf("WriteAt(%q) accepted", name)
		}
	}
}

func TestOpenChannelValidation(t *testing.T) {
	ds := dataset.NewGenerator(7).Uniform(1, units.KB)
	srv := synthServer(t, ds, nil)
	client := &Client{Addr: srv.Addr()}
	if _, err := client.OpenChannel(0); err == nil {
		t.Error("parallelism 0 accepted")
	}
	bad := &Client{Addr: "127.0.0.1:1"}
	if _, err := bad.OpenChannel(1); err == nil {
		t.Error("dial to dead port succeeded")
	}
	if _, err := bad.List(); err == nil {
		t.Error("list from dead port succeeded")
	}
}

func TestServerRejectsGarbage(t *testing.T) {
	ds := dataset.NewGenerator(8).Uniform(1, units.KB)
	srv := synthServer(t, ds, nil)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "BOGUS nonsense\n")
	br := bufio.NewReader(conn)
	verb, _, err := readLine(br)
	if err != nil || verb != respErr {
		t.Errorf("expected ERR, got %q err %v", verb, err)
	}
}

// A DATA handshake whose stream index is past maxStreams is refused
// before the session's stream table grows to fit it.
func TestServerRejectsHugeStreamIndex(t *testing.T) {
	ds := dataset.NewGenerator(9).Uniform(1, units.KB)
	srv := synthServer(t, ds, nil)
	ctrl, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	fmt.Fprintf(ctrl, "HELLO\n")
	verb, fields, err := readLine(bufio.NewReader(ctrl))
	if err != nil || verb != respOK || len(fields) != 1 {
		t.Fatalf("HELLO: got %q %v err %v", verb, fields, err)
	}
	data, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer data.Close()
	_ = data.SetReadDeadline(time.Now().Add(5 * time.Second))
	fmt.Fprintf(data, "%s %s %d\n", cmdData, fields[0], 1<<20)
	if verb, _, err := readLine(bufio.NewReader(data)); err != nil || verb != respErr {
		t.Errorf("DATA with stream index 1<<20: expected ERR, got %q err %v", verb, err)
	}
}

// A control line past maxLineLen is an error, whatever the reader's
// buffer size; a line at the cap is read.
func TestReadLineCapsLength(t *testing.T) {
	long := cmdGet + " " + strings.Repeat("x", 1<<20) + "\n"
	atCap := cmdGet + " " + strings.Repeat("x", maxLineLen-len(cmdGet)-2) + "\n"
	for _, size := range []int{4096, maxLineLen} {
		if _, _, err := readLine(bufio.NewReaderSize(strings.NewReader(long), size)); err == nil {
			t.Errorf("reader size %d: a 1 MiB line was accepted", size)
		}
		verb, fields, err := readLine(bufio.NewReaderSize(strings.NewReader(atCap), size))
		if err != nil || verb != cmdGet || len(fields) != 1 || len(fields[0]) != maxLineLen-len(cmdGet)-2 {
			t.Errorf("reader size %d: a line of maxLineLen bytes: verb %q, %d fields, err %v", size, verb, len(fields), err)
		}
	}
}

// A server drops a control connection whose line outgrows maxLineLen
// instead of buffering it until a newline arrives.
func TestServerDropsOverlongControlLine(t *testing.T) {
	ds := dataset.NewGenerator(9).Uniform(1, units.KB)
	srv := synthServer(t, ds, nil)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	fmt.Fprintf(conn, "HELLO\n")
	if verb, _, err := readLine(br); err != nil || verb != respOK {
		t.Fatalf("HELLO: got %q err %v", verb, err)
	}
	// The write fails once the server has closed the connection.
	_, _ = conn.Write(bytes.Repeat([]byte{'x'}, 1<<20))
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err = br.ReadByte()
	var nerr net.Error
	if err == nil || errors.As(err, &nerr) && nerr.Timeout() {
		t.Errorf("server kept a connection sending a 1 MiB line: read err %v", err)
	}
}

// A 4096-byte name, longer than the client's control reader, round-trips
// through LIST and GET.
func TestLongNameRoundTrip(t *testing.T) {
	name := strings.Repeat("long name\t", 410)[:4096]
	ds := dataset.Dataset{Files: []dataset.File{{Name: name, Size: 3000}}}
	srv := synthServer(t, ds, nil)
	client := &Client{Addr: srv.Addr()}
	files, err := client.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files[0] != ds.Files[0] {
		t.Fatalf("listed %d files, first name %d bytes", len(files), len(files[0].Name))
	}
	ch, err := client.OpenChannel(1)
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	sink := NewVerifySink()
	if _, err := ch.Fetch(files, 1, sink); err != nil {
		t.Fatal(err)
	}
	if bad := sink.Corrupt(); len(bad) > 0 || sink.BytesFor(name) != 3000 {
		t.Fatalf("corrupt ranges %v, %d of 3000 bytes", bad, sink.BytesFor(name))
	}
}

func TestServerUnknownDataSession(t *testing.T) {
	ds := dataset.NewGenerator(9).Uniform(1, units.KB)
	srv := synthServer(t, ds, nil)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "DATA 99999 0\n")
	verb, _, err := readLine(bufio.NewReader(conn))
	if err != nil || verb != respErr {
		t.Errorf("expected ERR, got %q err %v", verb, err)
	}
}

func TestFetchMissingFile(t *testing.T) {
	ds := dataset.NewGenerator(10).Uniform(1, units.KB)
	srv := synthServer(t, ds, nil)
	client := &Client{Addr: srv.Addr()}
	ch, err := client.OpenChannel(1)
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	ghost := []dataset.File{{Name: "ghost.dat", Size: 100}}
	if _, err := ch.Fetch(ghost, 1, NewVerifySink()); err == nil {
		t.Error("fetching a missing file succeeded")
	}
	// The channel survives the error for subsequent requests.
	if _, err := ch.Fetch(ds.Files, 1, NewVerifySink()); err != nil {
		t.Errorf("channel dead after recoverable error: %v", err)
	}
}

func TestZeroByteFile(t *testing.T) {
	ds := dataset.Dataset{Files: []dataset.File{{Name: "empty.dat", Size: 0}}}
	srv := synthServer(t, ds, nil)
	client := &Client{Addr: srv.Addr()}
	ch, err := client.OpenChannel(1)
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	res, err := ch.Fetch(ds.Files, 1, NewVerifySink())
	if err != nil {
		t.Fatal(err)
	}
	if res.Files != 1 || res.Bytes != 0 {
		t.Errorf("zero-byte fetch result: %+v", res)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	ds := dataset.NewGenerator(11).Uniform(50, 2*units.MB)
	srv := synthServer(t, ds, func(c *ServerConfig) {
		c.PerStreamRate = 1 * units.Mbps // slow enough to still be mid-flight
	})
	client := &Client{Addr: srv.Addr()}
	ch, err := client.OpenChannel(1)
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	errCh := make(chan error, 1)
	go func() {
		_, err := ch.Fetch(ds.Files, 2, NewVerifySink())
		errCh <- err
	}()
	time.Sleep(100 * time.Millisecond)
	srv.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Error("fetch succeeded despite server shutdown")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fetch did not unblock after server close")
	}
}

func TestLimiterThrottles(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	l := NewLimiter(8 * 100 * 1024) // 100 KiB/s
	start := time.Now()
	l.Wait(50 * 1024) // burst covers the first 64 KiB... wait for refill
	l.Wait(50 * 1024)
	elapsed := time.Since(start)
	// 100 KiB through a 100 KiB/s bucket with 64 KiB burst ≥ ~0.35 s.
	if elapsed < 300*time.Millisecond {
		t.Errorf("limiter too permissive: %v", elapsed)
	}
	var unlimited *Limiter
	unlimited.Wait(1 << 20) // must not panic or block
	NewLimiter(0).Wait(1 << 20)
}

func TestFillSynthStable(t *testing.T) {
	a := make([]byte, 64)
	b := make([]byte, 64)
	FillSynth("f", 0, a)
	FillSynth("f", 32, b[:32])
	if !bytes.Equal(a[32:], b[:32]) {
		t.Error("offset reads not consistent")
	}
	FillSynth("g", 0, b)
	if bytes.Equal(a, b) {
		t.Error("different files produced identical content")
	}
}

// fillSynthPerByte is FillSynth as first written, one 64-bit mix per
// byte: the reference the lane-at-a-time generator must match bit for
// bit.
func fillSynthPerByte(name string, off int64, p []byte) {
	seed := int64(nameHash(name))
	for i := range p {
		pos := off + int64(i)
		lane := pos >> 3
		x := uint64(seed) ^ uint64(lane)*0x9E3779B97F4A7C15
		x ^= x >> 33
		x *= 0xFF51AFD7ED558CCD
		x ^= x >> 33
		var lanes [8]byte
		binary.LittleEndian.PutUint64(lanes[:], x)
		p[i] = lanes[pos&7]
	}
}

// FillSynth's output is fixed: golden CRCs pin it, and every offset and
// length around lane edges matches the per-byte reference.
func TestFillSynthGolden(t *testing.T) {
	for _, g := range []struct {
		name string
		off  int64
		n    int
		crc  uint32
	}{
		{"f", 0, 1, 0x4f1eaa24},
		{"f", 7, 2, 0x32120247},
		{"f", 3, 13, 0xe3bb020a},
		{"data/a.bin", 8, 8, 0x5122dd65},
		{"data/a.bin", 5, 3, 0x01266769},
		{"x", 1<<33 - 3, 4099, 0xab9e9623},
		{"g", 256*1024 - 3, 256*1024 + 3, 0xa068e8d8},
	} {
		p := make([]byte, g.n)
		FillSynth(g.name, g.off, p)
		if got := crc32c.Checksum(p); got != g.crc {
			t.Errorf("FillSynth(%q, %d, %d bytes) crc %08x, want %08x", g.name, g.off, g.n, got, g.crc)
		}
	}
	got := make([]byte, 40)
	want := make([]byte, 40)
	for off := int64(0); off < 17; off++ {
		for n := 0; n <= len(got); n++ {
			FillSynth("lanes", off, got[:n])
			fillSynthPerByte("lanes", off, want[:n])
			if !bytes.Equal(got[:n], want[:n]) {
				t.Fatalf("FillSynth at %d+%d differs from the per-byte reference", off, n)
			}
		}
	}
}

func TestServerStats(t *testing.T) {
	ds := dataset.NewGenerator(40).Uniform(5, 100*units.KB)
	reg := obs.NewRegistry()
	log := obs.NewLog(nil)
	srv := synthServer(t, ds, func(c *ServerConfig) {
		c.Metrics = reg
		c.Events = log
	})
	counters := func() (sessions, requests, served int64) {
		c := reg.Snapshot().Counters
		return c["server_sessions_total"], c["server_requests_served"], c["server_bytes_served"]
	}
	if sessions, _, served := counters(); sessions != 0 || served != 0 {
		t.Errorf("fresh server counters: %d sessions, %d bytes", sessions, served)
	}
	client := &Client{Addr: srv.Addr()}
	ch, err := client.OpenChannel(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Fetch(ds.Files, 2, NewVerifySink()); err != nil {
		t.Fatal(err)
	}
	sessions, requests, served := counters()
	if sessions != 1 {
		t.Errorf("server_sessions_total = %d, want 1", sessions)
	}
	if requests != 5 || served != int64(ds.TotalSize()) {
		t.Errorf("server_requests_served = %d, server_bytes_served = %d (want 5 / %d)",
			requests, served, int64(ds.TotalSize()))
	}
	// A closed channel's session is reaped, so a drain finds nothing to
	// force.
	ch.Close()
	if err := srv.Drain(2 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	tail := bytes.Join(log.Tail(0), []byte("\n"))
	if !bytes.Contains(tail, []byte(`"type":"server_drained"`)) || !bytes.Contains(tail, []byte(`"forced":false`)) {
		t.Errorf("session not reaped before the drain:\n%s", tail)
	}
}

func TestDataStreamAttachedAfterSessionCloseIsClosed(t *testing.T) {
	// A DATA handshake can look its session up just before the session
	// closes and attach just after; the stream must not stay open.
	ctrl, _ := net.Pipe()
	sess := &serverSession{ctrl: ctrl, dataGot: make(chan struct{}, 1)}
	sess.close()
	client, server := net.Pipe()
	sess.attachData(0, server)
	_ = client.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := client.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Errorf("read from a stream attached to a closed session: %v, want EOF", err)
	}
}
