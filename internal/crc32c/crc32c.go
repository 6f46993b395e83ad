// Package crc32c is the program's one CRC-32C (Castagnoli): the
// client's per-block verify and journal CRC, the server's block hash,
// the receipt journal's record CRC and resume's disk verification all
// call it, and striped transfers merge per-block CRCs with Combine.
//
// Update finishes every input with hash/crc32. On amd64 hosts with
// AVX-512 VPCLMULQDQ and OS-enabled ZMM state, inputs of at least
// kernelMin bytes first go through an assembly kernel that folds four
// 512-bit accumulators over 256 bytes per iteration and returns the
// CRC state of everything it folded; hash/crc32 then takes the tail
// below one 256-byte stride. Every other host uses hash/crc32 alone.
package crc32c

import "hash/crc32"

// castagnoli is hash/crc32's Castagnoli table; passing it selects the
// stdlib's SSE4.2 or slicing-by-8 implementation.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	// kernelStride is the bytes one kernel iteration folds: four ZMM
	// registers of four 128-bit lanes each.
	kernelStride = 256
	// kernelMin is the shortest input handed to the kernel. Below it the
	// kernel's fixed cost (its load, its final reduction and the
	// stdlib's tail) is a large share of the call.
	kernelMin = 1024
)

// Checksum returns the CRC-32C of p.
func Checksum(p []byte) uint32 { return Update(0, p) }

// Update returns the CRC-32C of a message whose CRC was crc, extended
// by p. Update(Update(0, a), b) == Checksum(a‖b).
func Update(crc uint32, p []byte) uint32 {
	if useKernel && len(p) >= kernelMin {
		n := len(p) &^ (kernelStride - 1)
		// The kernel works on the raw CRC state, the complement of the
		// CRC, as the SSE4.2 instruction does.
		crc = ^fold(^crc, p[:n])
		p = p[n:]
	}
	return crc32.Update(crc, castagnoli, p)
}

// CRC combination for striped transfers. A file arrives as
// out-of-order blocks across parallel streams, so nothing can feed a
// single running hash. Each block is hashed on its own and the results
// are merged the way zlib's crc32_combine does since 1.2.12: appending
// n bytes to a message multiplies its CRC by x^(8n) modulo the
// polynomial, and that power is assembled from a table of x^(2^k) in
// O(log n) carry-less multiplies.

// poly is the reflected Castagnoli polynomial, matching
// crc32.MakeTable(crc32.Castagnoli).
const poly = 0x82F63B78

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
			b = b>>1 ^ poly
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

// xPow8n returns x^(8n) modulo the polynomial: the product of x^(2^k)
// over the set bits k of n<<3.
func xPow8n(n uint64) uint32 {
	xn := uint32(1) << 31 // x^0
	for k := 3; n > 0; k++ {
		if n&1 != 0 {
			xn = multModP(x2nTable[k%len(x2nTable)], xn)
		}
		n >>= 1
	}
	return xn
}

// Combine returns the CRC-32C of the concatenation A‖B given crc(A),
// crc(B) and len(B), in O(log len2) multiplies.
func Combine(crc1, crc2 uint32, len2 int64) uint32 {
	if len2 <= 0 {
		return crc1
	}
	return multModP(xPow8n(uint64(len2)), crc1) ^ crc2
}
