#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func fold(s uint32, p []byte) uint32
//
// Z0–Z3 hold 256 bytes of message as sixteen 128-bit lanes. The state s
// is XORed into the first four bytes, then each iteration moves every
// lane one stride on (two VPCLMULQDQ by foldK[0:2]) and XORs in the
// next 256 bytes. At the end Z0, Z1 and Z2 are folded onto Z3, Z3's
// lanes onto its last, and the CRC32 instruction reduces the remaining
// 16 bytes from a zero state.
TEXT ·fold(SB), NOSPLIT, $0-36
	MOVL s+0(FP), AX
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), CX
	LEAQ ·foldK(SB), DX

	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	VMOVD     AX, X4
	VPXORQ    Z4, Z0, Z0
	ADDQ      $256, SI
	SUBQ      $256, CX
	JZ        reduce
	VBROADCASTI32X4 (DX), Z4

loop:
	VPCLMULQDQ $0x00, Z4, Z0, Z5
	VPCLMULQDQ $0x11, Z4, Z0, Z0
	VPTERNLOGD $0x96, (SI), Z5, Z0
	VPCLMULQDQ $0x00, Z4, Z1, Z6
	VPCLMULQDQ $0x11, Z4, Z1, Z1
	VPTERNLOGD $0x96, 64(SI), Z6, Z1
	VPCLMULQDQ $0x00, Z4, Z2, Z7
	VPCLMULQDQ $0x11, Z4, Z2, Z2
	VPTERNLOGD $0x96, 128(SI), Z7, Z2
	VPCLMULQDQ $0x00, Z4, Z3, Z8
	VPCLMULQDQ $0x11, Z4, Z3, Z3
	VPTERNLOGD $0x96, 192(SI), Z8, Z3
	ADDQ       $256, SI
	SUBQ       $256, CX
	JNZ        loop

reduce:
	VBROADCASTI32X4 16(DX), Z4
	VPCLMULQDQ      $0x00, Z4, Z0, Z5
	VPCLMULQDQ      $0x11, Z4, Z0, Z0
	VPTERNLOGD      $0x96, Z5, Z0, Z3
	VBROADCASTI32X4 32(DX), Z4
	VPCLMULQDQ      $0x00, Z4, Z1, Z5
	VPCLMULQDQ      $0x11, Z4, Z1, Z1
	VPTERNLOGD      $0x96, Z5, Z1, Z3
	VBROADCASTI32X4 48(DX), Z4
	VPCLMULQDQ      $0x00, Z4, Z2, Z5
	VPCLMULQDQ      $0x11, Z4, Z2, Z2
	VPTERNLOGD      $0x96, Z5, Z2, Z3

	// Lanes 0–2 move onto lane 3; foldK[14:16] are zero, so lane 3's
	// products vanish and the lane itself is XORed in from X7.
	VMOVDQU64     64(DX), Z4
	VPCLMULQDQ    $0x00, Z4, Z3, Z5
	VPCLMULQDQ    $0x11, Z4, Z3, Z6
	VEXTRACTI32X4 $3, Z3, X7
	VPTERNLOGD    $0x96, Z5, Z6, Z7
	VEXTRACTI64X4 $1, Z7, Y5
	VPXORQ        Y5, Y7, Y7
	VEXTRACTI32X4 $1, Y7, X5
	VPXORQ        X5, X7, X7

	VMOVQ   X7, AX
	VPEXTRQ $1, X7, BX
	XORL    DX, DX
	CRC32Q  AX, DX
	CRC32Q  BX, DX
	VZEROUPPER
	MOVL    DX, ret+32(FP)
	RET
