package proto

import (
	"errors"

	"github.com/didclab/eta/internal/crc32c"
)

// ErrChecksumMismatch marks a fetched file whose combined block CRCs
// disagree with the server's whole-file checksum (or whose blocks do
// not tile the requested range): the bytes arrived and were
// acknowledged, but the content is wrong. Callers that can re-fetch
// should — corruption is transient where a transport error may not be —
// and the executor does exactly that, re-queueing the file against the
// retry budget without tearing down the (healthy) channel.
var ErrChecksumMismatch = errors.New("proto: checksum mismatch")

// CRC32CCombine returns the CRC-32C of the concatenation A‖B given
// crc(A), crc(B) and len(B). It is crc32c.Combine under the name
// perfbench calls.
func CRC32CCombine(crc1, crc2 uint32, len2 int64) uint32 {
	return crc32c.Combine(crc1, crc2, len2)
}

// blockCRC is one received block's integrity record.
type blockCRC struct {
	off int64
	n   int64
	crc uint32
}

// combineBlocks merges per-block CRCs into the whole-file CRC-32C. The
// blocks must tile [0, total) exactly once; the slice is sorted in
// place. It returns ok=false if the tiling has gaps or overlaps.
func combineBlocks(blocks []blockCRC, total int64) (uint32, bool) {
	sortBlocks(blocks)
	var crc uint32
	var pos int64
	for _, b := range blocks {
		if b.n == 0 {
			continue // contributes nothing and tiles nowhere
		}
		if b.off != pos {
			return 0, false
		}
		crc = crc32c.Combine(crc, b.crc, b.n)
		pos += b.n
	}
	return crc, pos == total
}

// sortBlocks is an insertion sort: block lists arrive nearly sorted
// (round-robin striping), where insertion sort is O(n).
func sortBlocks(blocks []blockCRC) {
	for i := 1; i < len(blocks); i++ {
		for j := i; j > 0 && blocks[j].off < blocks[j-1].off; j-- {
			blocks[j], blocks[j-1] = blocks[j-1], blocks[j]
		}
	}
}
