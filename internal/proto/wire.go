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
	"fmt"
	"hash/crc32"
	"io"
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

// blockMagic guards data-stream framing.
const blockMagic uint16 = 0xE7A1

// blockHeaderSize is the wire size of a block header.
const blockHeaderSize = 2 + 4 + 8 + 4

// DefaultBlockSize is the striping unit on data streams.
const DefaultBlockSize = 256 * 1024

// blockHeader frames one payload block on a data stream. A Length of
// zero marks the final block of a request on this stream.
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

func writeBlockHeader(w io.Writer, h blockHeader) error {
	var buf [blockHeaderSize]byte
	encodeBlockHeader(buf[:], h)
	_, err := w.Write(buf[:])
	return err
}

func readBlockHeader(r io.Reader) (blockHeader, error) {
	var buf [blockHeaderSize]byte
	return readBlockHeaderBuf(r, buf[:])
}

// readBlockHeaderBuf is readBlockHeader with caller-owned scratch.
// Hot loops reuse one scratch slice per goroutine so the header does
// not escape to the heap on every block.
func readBlockHeaderBuf(r io.Reader, scratch []byte) (blockHeader, error) {
	scratch = scratch[:blockHeaderSize]
	if _, err := io.ReadFull(r, scratch); err != nil {
		return blockHeader{}, err
	}
	return decodeBlockHeader(scratch)
}

// getRequest is a parsed GET command.
type getRequest struct {
	ID     uint32
	Name   string
	Offset int64
	Length int64
}

// formatGet renders a GET line. File names are URL-style escaped only
// for spaces, which are the one character the line format cannot carry.
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
	return getRequest{
		ID:     uint32(id),
		Name:   unescapeName(fields[1]),
		Offset: offset,
		Length: length,
	}, nil
}

func escapeName(name string) string {
	return strings.ReplaceAll(name, " ", "%20")
}

func unescapeName(name string) string {
	return strings.ReplaceAll(name, "%20", " ")
}

// readLine reads one \n-terminated control line and splits it into the
// verb and its fields.
func readLine(r *bufio.Reader) (verb string, fields []string, err error) {
	line, err := r.ReadString('\n')
	if err != nil {
		return "", nil, err
	}
	parts := strings.Fields(strings.TrimSpace(line))
	if len(parts) == 0 {
		return "", nil, fmt.Errorf("proto: empty control line")
	}
	return parts[0], parts[1:], nil
}

// crcTable is the polynomial used for end-to-end integrity checks.
var crcTable = crc32.MakeTable(crc32.Castagnoli)
