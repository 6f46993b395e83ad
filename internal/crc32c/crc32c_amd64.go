package crc32c

// cpuid, xgetbv and fold are in crc32c_amd64.s.

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// fold returns the raw CRC state (the complement of the CRC) after p,
// starting from state s. len(p) must be a positive multiple of
// kernelStride, and the CPU must have what hasKernel checks for.
//
//go:noescape
func fold(s uint32, p []byte) uint32

// hasKernel reports whether this CPU and OS can run fold.
var hasKernel = detectKernel()

// useKernel routes long inputs through fold. Tests clear it to force
// the hash/crc32 path on a host that has the kernel.
var useKernel = hasKernel

// detectKernel checks CPUID and XCR0 for everything fold executes:
// AVX512F and AVX512VL, VPCLMULQDQ, SSE4.2's CRC32 for the last 16
// bytes, and an OS that saves the opmask and ZMM state on a context
// switch.
func detectKernel() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const (
		sse42   = 1 << 20 // CPUID.1:ECX
		osxsave = 1 << 27 // CPUID.1:ECX
	)
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&(sse42|osxsave) != sse42|osxsave {
		return false
	}
	// XCR0 bits 1, 2, 5, 6 and 7: the XMM, YMM, opmask and both ZMM
	// state components (the conventional AVX-512 check; fold itself
	// uses only Z0–Z15).
	if xcr0, _ := xgetbv(); xcr0&0xE6 != 0xE6 {
		return false
	}
	const (
		avx512f    = 1 << 16 // CPUID.7.0:EBX
		avx512vl   = 1 << 31 // CPUID.7.0:EBX
		vpclmulqdq = 1 << 10 // CPUID.7.0:ECX
	)
	_, ebx7, ecx7, _ := cpuid(7, 0)
	return ebx7&(avx512f|avx512vl) == avx512f|avx512vl && ecx7&vpclmulqdq != 0
}

// foldK holds fold's constants, which crc32c_amd64.s reads at fixed
// offsets. A pair {x^(D+32), x^(D−32)} mod P, each in the reflected
// form shifted left by one bit, moves a 128-bit lane D bits further
// along the message with two carry-less multiplies: the low qword of
// the lane (its higher-degree half) is multiplied by the first, the
// high qword by the second, and the shift absorbs the one-bit offset a
// carry-less product of two reflected operands carries.
var foldK = func() (k [16]uint64) {
	pair := func(i int, bits uint64) {
		k[i] = uint64(xPow8n((bits+32)/8)) << 1
		k[i+1] = uint64(xPow8n((bits-32)/8)) << 1
	}
	pair(0, 8*kernelStride) // the loop: each lane one stride on
	pair(2, 8*192)          // Z0 onto Z3
	pair(4, 8*128)          // Z1 onto Z3
	pair(6, 8*64)           // Z2 onto Z3
	pair(8, 8*48)           // Z3's lane 0 onto its lane 3
	pair(10, 8*32)          // lane 1
	pair(12, 8*16)          // lane 2; k[14:16] stay 0, lane 3 is in place
	return k
}()
