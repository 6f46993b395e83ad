package crc32c

import "testing"

func TestFoldConstants(t *testing.T) {
	// foldK's pairs are x^(D±32) mod P shifted one bit left, so each
	// fits in 33 bits and the zero pair is the last.
	for i, k := range foldK[:14] {
		if k == 0 || k>>33 != 0 || k&1 != 0 {
			t.Errorf("foldK[%d] = %#x, want a nonzero 33-bit value with bit 0 clear", i, k)
		}
	}
	if foldK[14] != 0 || foldK[15] != 0 {
		t.Errorf("foldK[14:16] = %#x, want zero: lane 3 is not moved", foldK[14:16])
	}
}
