package proto

import "errors"

// ErrChecksumMismatch marks a fetched file whose combined block CRCs
// disagree with the server's whole-file checksum (or whose blocks do
// not tile the requested range): the bytes arrived and were
// acknowledged, but the content is wrong. Callers that can re-fetch
// should — corruption is transient where a transport error may not be —
// and the executor does exactly that, re-queueing the file against the
// retry budget without tearing down the (healthy) channel.
var ErrChecksumMismatch = errors.New("proto: checksum mismatch")

// CRC combination for striped transfers. The server computes one
// CRC-32C over each file as it reads it sequentially; the client
// receives the file as out-of-order blocks across parallel streams, so
// it cannot feed a single running hash. Instead it hashes each block
// independently and merges the results the way zlib's crc32_combine
// does since 1.2.12: appending n bytes to a message multiplies its CRC
// by x^(8n) modulo the polynomial, and that power is assembled from a
// table of x^(2^k) in O(log n) carry-less multiplies.

// crc32Poly is the reflected Castagnoli polynomial, matching
// crc32.MakeTable(crc32.Castagnoli).
const crc32Poly = 0x82F63B78

// multModP returns a·b modulo the polynomial. Both operands are in the
// reflected representation, where bit 31 is x^0.
func multModP(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; a != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
			a ^= m
		}
		if b&1 != 0 {
			b = b>>1 ^ crc32Poly
		} else {
			b >>= 1
		}
	}
	return p
}

// x2nTable[k] is x^(2^k) modulo the polynomial. The Castagnoli
// polynomial gives x^(2^31) = x, so the powers repeat with period 31
// (not zlib's 32, which holds only for its own polynomial).
var x2nTable = func() (t [31]uint32) {
	p := uint32(1) << 30 // x^1
	for k := range t {
		t[k] = p
		p = multModP(p, p)
	}
	return t
}()

// CRC32CCombine returns the CRC-32C of the concatenation A‖B given
// crc(A), crc(B) and len(B), in O(log len2) multiplies.
func CRC32CCombine(crc1, crc2 uint32, len2 int64) uint32 {
	if len2 <= 0 {
		return crc1
	}
	// x^(8·len2) = the product of x^(2^k) over the set bits k of
	// len2<<3.
	xn := uint32(1) << 31 // x^0
	for k := 3; len2 > 0; k++ {
		if len2&1 != 0 {
			xn = multModP(x2nTable[k%len(x2nTable)], xn)
		}
		len2 >>= 1
	}
	return multModP(xn, crc1) ^ crc2
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
		crc = CRC32CCombine(crc, b.crc, b.n)
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
