package crc32c

import (
	"bytes"
	"testing"
)

// maxFuzzData bounds FuzzUpdate's data argument.
const maxFuzzData = 256

// FuzzUpdate checks Update against hash/crc32 on arbitrary data, initial
// CRC and split point, on every path this host has. The data is also
// stretched to kernelMin plus up to 4 KiB, each repetition offset by its
// count so the result is not periodic, which gives the kernel every
// input and every tail length below a stride. Data longer than
// maxFuzzData is ignored: the fuzzer minimises each new input in time
// quadratic in its length, and kilobyte inputs stalled it for seconds
// at a time, while stretching already reaches every length.
func FuzzUpdate(f *testing.F) {
	f.Add([]byte("123456789"), uint32(0), uint16(4), uint16(0))
	f.Add([]byte{}, uint32(0xFFFFFFFF), uint16(0), uint16(1200))
	f.Add(bytes.Repeat([]byte{0xA5}, 64), uint32(1), uint16(1000), uint16(3000))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, uint32(0x12345678), uint16(1024), uint16(255))
	f.Fuzz(func(t *testing.T, data []byte, init uint32, split, grow uint16) {
		if len(data) > maxFuzzData {
			return
		}
		inputs := [][]byte{data}
		if len(data) > 0 {
			long := make([]byte, kernelMin+int(grow)%(4<<10))
			for i := range long {
				long[i] = data[i%len(data)] + byte(i/len(data))
			}
			inputs = append(inputs, long)
		}
		paths := []bool{false}
		if hasKernel {
			paths = append(paths, true)
		}
		saved := useKernel
		defer func() { useKernel = saved }()
		for _, p := range inputs {
			want := std(init, p)
			i := int(split) % (len(p) + 1)
			for _, on := range paths {
				useKernel = on
				if got := Update(init, p); got != want {
					t.Fatalf("kernel %v: Update(%08x, %d bytes) = %08x, want %08x", on, init, len(p), got, want)
				}
				if got := Update(Update(init, p[:i]), p[i:]); got != want {
					t.Fatalf("kernel %v: split at %d of %d: %08x, want %08x", on, i, len(p), got, want)
				}
			}
		}
	})
}
