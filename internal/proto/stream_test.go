package proto

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/didclab/eta/internal/crc32c"
	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/units"
)

// fakeServer plays the server side of one channel with one data
// stream: it answers the handshake and OPEN, then hands the first GET's
// id to serve along with both connections, and holds them open until
// the client hangs up.
func fakeServer(t *testing.T, serve func(id string, ctrl, data net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		ctrl, err := ln.Accept()
		if err != nil {
			return
		}
		defer ctrl.Close()
		br := bufio.NewReader(ctrl)
		if _, _, err := readLine(br); err != nil { // HELLO
			return
		}
		fmt.Fprintf(ctrl, "%s 1\n", respOK)
		data, err := ln.Accept()
		if err != nil {
			return
		}
		defer data.Close()
		if _, _, err := readLine(bufio.NewReader(data)); err != nil { // DATA 1 0
			return
		}
		if _, _, err := readLine(br); err != nil { // OPEN 1
			return
		}
		fmt.Fprintf(ctrl, "%s 1\n", respOK)
		verb, fields, err := readLine(br)
		if err != nil || verb != cmdGet || len(fields) != 4 {
			t.Errorf("fake server got %q %v (%v), want a GET", verb, fields, err)
			return
		}
		serve(fields[0], ctrl, data)
		for {
			if _, _, err := readLine(br); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// A data block outside its GET's range, or one longer than any block a
// server may send, fails the fetch before anything reaches the sink:
// the bytes the block names keep their old content. The failed GET
// leaves the file marked in flight, one byte past its size.
func TestClientRejectsBlockOutsideRange(t *testing.T) {
	old := bytes.Repeat([]byte{0x11}, 16)
	for _, tc := range []struct {
		name string
		h    blockHeader
	}{
		{"before the range", blockHeader{ReqID: 1, Offset: 0, Length: 8}},
		{"past the range", blockHeader{ReqID: 1, Offset: 12, Length: 8}},
		{"above the block limit", blockHeader{ReqID: 1, Offset: 8, Length: maxBlockSize + 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := fakeServer(t, func(id string, ctrl, data net.Conn) {
				payload := bytes.Repeat([]byte{0xee}, 8)
				if err := writeBlockHeader(data, tc.h); err != nil {
					return
				}
				data.Write(payload)
				fmt.Fprintf(ctrl, "%s %s %d\n", respDone, id, crc32c.Checksum(payload))
			})
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "f"), old, 0o644); err != nil {
				t.Fatal(err)
			}
			// The stall timeout only bounds a regression that hangs.
			ch, err := (&Client{Addr: addr, StallTimeout: 5 * time.Second}).OpenChannel(1)
			if err != nil {
				t.Fatal(err)
			}
			defer ch.Close()
			r := FileRange{File: dataset.File{Name: "f", Size: 16}, Offset: 8}
			if _, err := ch.FetchRanges([]FileRange{r}, 1, NewDirSink(dir)); err == nil {
				t.Error("fetch succeeded")
			} else {
				t.Logf("fetch failed: %v", err)
			}
			got, err := os.ReadFile(filepath.Join(dir, "f"))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(old)+1 || !bytes.Equal(got[:len(old)], old) {
				t.Errorf("destination reads %x, want %x and the one-byte length mark", got, old)
			}
		})
	}
}

// A server block larger than the client's BlockSize replaces the
// stream's payload buffer with one that fits; the bytes still arrive
// intact and pass the end-to-end checksum, cold and warm, from a
// directory and from synthetic content.
func TestClientGrowsBufferForLargerServerBlocks(t *testing.T) {
	const serverBlock, clientBlock = 256 * 1024, 64 * 1024
	client := func(srv *Server) *Channel {
		c := &Client{Addr: srv.Addr(), VerifyChecksums: true, BlockSize: clientBlock}
		ch, err := c.OpenChannel(2)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ch.Close() })
		return ch
	}

	t.Run("DirStore", func(t *testing.T) {
		src := t.TempDir()
		const size = 5*serverBlock + 1000
		content := make([]byte, size)
		FillSynth("data.bin", 0, content)
		if err := os.WriteFile(filepath.Join(src, "data.bin"), content, 0o644); err != nil {
			t.Fatal(err)
		}
		ch := client(startServer(t, ServerConfig{Store: DirStore{Root: src}, BlockSize: serverBlock, Logf: t.Logf}))
		files := []dataset.File{{Name: "data.bin", Size: size}}
		for _, pass := range []string{"cold", "warm"} {
			dst := t.TempDir()
			if _, err := ch.Fetch(files, 1, NewDirSink(dst)); err != nil {
				t.Fatalf("%s: %v", pass, err)
			}
			got, err := os.ReadFile(filepath.Join(dst, "data.bin"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, content) {
				t.Errorf("%s: content differs from source", pass)
			}
		}
	})

	t.Run("SynthStore", func(t *testing.T) {
		ds := dataset.NewGenerator(13).Uniform(3, 900*units.KB)
		ch := client(synthServer(t, ds, func(c *ServerConfig) { c.BlockSize = serverBlock }))
		sink := NewVerifySink()
		if _, err := ch.Fetch(ds.Files, 2, sink); err != nil {
			t.Fatal(err)
		}
		if bad := sink.Corrupt(); len(bad) > 0 {
			t.Errorf("corrupted files: %v", bad)
		}
	})
}

// A server refuses a block size a client would refuse to receive.
func TestServeRejectsBlockSizeAboveLimit(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if srv, err := Serve(ln, ServerConfig{Store: NewSynthStore(dataset.Dataset{}), BlockSize: maxBlockSize + 1}); err == nil {
		srv.Close()
		t.Fatal("Serve accepted a block size above the limit")
	}
}

// A GET for more than its file holds fails with ERR once the reads run
// past the end. The length it asks for sizes nothing on the server, and
// the channel keeps serving.
func TestGetBeyondFileFailsAndChannelSurvives(t *testing.T) {
	ds := dataset.NewGenerator(3).Uniform(1, 300*units.KB)
	srv := synthServer(t, ds, nil)
	ch, err := (&Client{Addr: srv.Addr()}).OpenChannel(2)
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	huge := ds.Files[0]
	huge.Size = math.MaxInt64
	if _, err := ch.FetchRanges([]FileRange{{File: huge}}, 1, NewVerifySink()); err == nil {
		t.Fatal("a GET beyond its file succeeded")
	}
	sink := NewVerifySink()
	if _, err := ch.Fetch(ds.Files, 1, sink); err != nil {
		t.Fatalf("channel unusable after the failed GET: %v", err)
	}
	if bad := sink.Corrupt(); len(bad) > 0 {
		t.Errorf("corrupted files: %v", bad)
	}
}
