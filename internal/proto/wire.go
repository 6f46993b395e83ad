// Package proto implements a from-scratch GridFTP-like transfer
// protocol over real TCP, providing the three tunables the energy-aware
// algorithms actuate (§2.1):
//
//   - a text control channel whose GET requests can be pipelined
//     (multiple outstanding requests, no per-file round trip),
//   - striped data connections: each channel carries `parallelism`
//     TCP streams over which file blocks are interleaved,
//   - multiple concurrent channels per transfer.
//
// The server can shape traffic (per-stream rate, link rate, control
// RTT) so protocol behaviour is testable on loopback, and can serve
// either real directories or deterministic synthetic content.
package proto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/url"
	"strconv"
	"strings"
)

// Control-channel verbs.
const (
	cmdList = "LIST"
	cmdOpen = "OPEN"
	cmdGet  = "GET"
	cmdQuit = "QUIT"
	cmdData = "DATA"

	respOK   = "OK"
	respFile = "FILE"
	respEnd  = "END"
	respDone = "DONE"
	respErr  = "ERR"
)

// maxStreams caps a channel's data streams. OPEN's stream count and a
// DATA handshake's stream index are both checked against it, so a peer
// cannot make the server grow a session's stream table at will.
const maxStreams = 256

// maxLineLen caps a control line, newline included. It is also the
// server's control reader size, so there a line that fits is read in
// one ReadSlice.
const maxLineLen = 64 << 10

// blockMagic guards data-stream framing.
const blockMagic uint16 = 0xE7A1

// blockHeaderSize is the wire size of a block header.
const blockHeaderSize = 2 + 4 + 8 + 4

// DefaultBlockSize is the striping unit on data streams.
const DefaultBlockSize = 256 * 1024

// maxBlockSize caps a block's payload. A server refuses a larger
// BlockSize, and a client fails the channel on a header announcing
// more instead of allocating whatever its Length asks for.
const maxBlockSize = 8 << 20

// blockHeader frames one payload block on a data stream: Length bytes
// of request ReqID's file, from file offset Offset, follow it.
type blockHeader struct {
	ReqID  uint32
	Offset uint64
	Length uint32
}

// encodeBlockHeader serializes h into buf[:blockHeaderSize].
func encodeBlockHeader(buf []byte, h blockHeader) {
	binary.BigEndian.PutUint16(buf[0:2], blockMagic)
	binary.BigEndian.PutUint32(buf[2:6], h.ReqID)
	binary.BigEndian.PutUint64(buf[6:14], h.Offset)
	binary.BigEndian.PutUint32(buf[14:18], h.Length)
}

// decodeBlockHeader parses buf[:blockHeaderSize].
func decodeBlockHeader(buf []byte) (blockHeader, error) {
	if magic := binary.BigEndian.Uint16(buf[0:2]); magic != blockMagic {
		return blockHeader{}, fmt.Errorf("proto: bad block magic %#04x", magic)
	}
	return blockHeader{
		ReqID:  binary.BigEndian.Uint32(buf[2:6]),
		Offset: binary.BigEndian.Uint64(buf[6:14]),
		Length: binary.BigEndian.Uint32(buf[14:18]),
	}, nil
}

// frameReadAhead bounds how far past the end of the frame being parsed
// a data stream's read may reach. It lets one read take a block with
// the next header, or a run of short blocks, while the copy to the
// buffer's front when the buffer runs out stays this small: reading to
// the buffer's end instead would move most of a block whenever a short
// block comes before a full one. A header less than 16 KiB, it makes a
// buffer for a block of whole pages whole pages too, so the allocator
// rounds nothing up.
const frameReadAhead = 16*1024 - blockHeaderSize

// frameReader parses block frames in place from one buffer. Reads from
// r land in the buffer's free tail and next hands out each payload as a
// slice of the buffer, so a payload byte is copied once, from the
// socket. Every read stops at most frameReadAhead past the end of the
// frame being parsed, so at most that many bytes are ever buffered
// ahead, and only they move to the front when the buffer runs out.
type frameReader struct {
	r      io.Reader
	buf    []byte
	lo, hi int // buf[lo:hi] is read and not yet parsed
}

// next returns the next frame's header and payload. The payload is a
// slice of the reader's buffer, valid until the following call. A
// stream that ends at a frame boundary yields io.EOF, one that ends
// inside a frame io.ErrUnexpectedEOF.
func (fr *frameReader) next() (blockHeader, []byte, error) {
	if err := fr.fill(blockHeaderSize); err != nil {
		return blockHeader{}, nil, err
	}
	h, err := decodeBlockHeader(fr.buf[fr.lo:])
	if err != nil {
		return blockHeader{}, nil, err
	}
	// Checked before fill grows the buffer to what Length asks for.
	if h.Length > maxBlockSize {
		return blockHeader{}, nil, fmt.Errorf("proto: block of %d bytes above the %d-byte limit", h.Length, maxBlockSize)
	}
	n := blockHeaderSize + int(h.Length)
	if err := fr.fill(n); err != nil {
		return blockHeader{}, nil, err
	}
	frame := fr.buf[fr.lo : fr.lo+n : fr.lo+n]
	fr.lo += n
	return h, frame[blockHeaderSize:], nil
}

// fill reads until buf[lo:hi] holds n bytes. When the buffer's tail
// has no room for them and the read-ahead, the buffered bytes move to
// the front first, into a larger buffer if n and the read-ahead
// outgrow it. A stream that ends before any byte of the n yields
// io.EOF, one that ends after some io.ErrUnexpectedEOF.
func (fr *frameReader) fill(n int) error {
	if fr.hi-fr.lo >= n {
		return nil
	}
	if fr.lo+n+frameReadAhead > len(fr.buf) {
		buf := fr.buf
		if n+frameReadAhead > len(buf) {
			buf = make([]byte, n+frameReadAhead)
		}
		fr.hi = copy(buf, fr.buf[fr.lo:fr.hi])
		fr.lo, fr.buf = 0, buf
	}
	// A frame longer than the read-ahead makes a long read already:
	// reading past its end more than the next header would only add
	// bytes that a next frame as long moves to the front again.
	limit := fr.lo + n + frameReadAhead
	if n > frameReadAhead {
		limit = fr.lo + n + blockHeaderSize
	}
	for fr.hi-fr.lo < n {
		m, err := fr.r.Read(fr.buf[fr.hi:limit])
		fr.hi += m
		if err != nil && fr.hi-fr.lo < n {
			if errors.Is(err, io.EOF) && fr.hi > fr.lo {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// getRequest is a parsed GET command.
type getRequest struct {
	ID     uint32
	Name   string
	Offset int64
	Length int64
}

// formatGet renders a GET line, with the file name escaped by escapeName.
func formatGet(r getRequest) string {
	return fmt.Sprintf("%s %d %s %d %d\n", cmdGet, r.ID, escapeName(r.Name), r.Offset, r.Length)
}

func parseGet(fields []string) (getRequest, error) {
	if len(fields) != 4 {
		return getRequest{}, fmt.Errorf("proto: GET wants 4 arguments, got %d", len(fields))
	}
	id, err := strconv.ParseUint(fields[0], 10, 32)
	if err != nil {
		return getRequest{}, fmt.Errorf("proto: bad request id %q", fields[0])
	}
	offset, err := strconv.ParseInt(fields[2], 10, 64)
	if err != nil || offset < 0 {
		return getRequest{}, fmt.Errorf("proto: bad offset %q", fields[2])
	}
	length, err := strconv.ParseInt(fields[3], 10, 64)
	if err != nil || length < 0 {
		return getRequest{}, fmt.Errorf("proto: bad length %q", fields[3])
	}
	name, err := unescapeName(fields[1])
	if err != nil {
		return getRequest{}, err
	}
	return getRequest{
		ID:     uint32(id),
		Name:   name,
		Offset: offset,
		Length: length,
	}, nil
}

// escapeName makes any file name one control-line field. url.PathEscape
// percent-encodes '%', every ASCII space and control byte and every
// byte of a multi-byte UTF-8 sequence, so nothing strings.Fields splits
// on (Unicode spaces included) is left in the field.
func escapeName(name string) string {
	return url.PathEscape(name)
}

// unescapeName inverts escapeName, and rejects a malformed escape.
func unescapeName(field string) (string, error) {
	name, err := url.PathUnescape(field)
	if err != nil {
		return "", fmt.Errorf("proto: bad file name %q", field)
	}
	return name, nil
}

// readLine reads one \n-terminated control line and splits it into the
// verb and its fields. A line longer than maxLineLen is an error, so a
// peer that never sends a newline cannot pin unbounded memory.
func readLine(r *bufio.Reader) (verb string, fields []string, err error) {
	line, err := r.ReadSlice('\n')
	var long []byte // the line so far, once it outgrows r's buffer
	for errors.Is(err, bufio.ErrBufferFull) && len(long)+len(line) <= maxLineLen {
		long = append(long, line...)
		line, err = r.ReadSlice('\n')
	}
	if len(long)+len(line) > maxLineLen {
		return "", nil, fmt.Errorf("proto: control line longer than %d bytes", maxLineLen)
	}
	if err != nil {
		return "", nil, err
	}
	if long != nil {
		line = append(long, line...)
	}
	parts := strings.Fields(string(line))
	if len(parts) == 0 {
		return "", nil, fmt.Errorf("proto: empty control line")
	}
	return parts[0], parts[1:], nil
}
