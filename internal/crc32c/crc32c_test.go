package crc32c

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
)

var stdTable = crc32.MakeTable(crc32.Castagnoli)

// std is the reference every test compares Update against.
func std(crc uint32, p []byte) uint32 { return crc32.Update(crc, stdTable, p) }

// noKernel is why a kernel test or benchmark skips.
const noKernel = "this host cannot run the VPCLMULQDQ kernel (it needs amd64 with AVX512F, AVX512VL, VPCLMULQDQ and OS-enabled ZMM state)"

// setKernel turns the kernel on or off for one test.
func setKernel(tb testing.TB, on bool) {
	saved := useKernel
	useKernel = on
	tb.Cleanup(func() { useKernel = saved })
}

// eachPath runs f as subtest "kernel", skipped on a host without it,
// and as subtest "fallback", which forces hash/crc32.
func eachPath(t *testing.T, f func(t *testing.T)) {
	t.Run("kernel", func(t *testing.T) {
		if !hasKernel {
			t.Skip(noKernel)
		}
		setKernel(t, true)
		f(t)
	})
	t.Run("fallback", func(t *testing.T) {
		setKernel(t, false)
		f(t)
	})
}

func randomBytes(n int, seed int64) []byte {
	p := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

func TestChecksumCheckValue(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		// The standard CRC-32C check value.
		if got := Checksum([]byte("123456789")); got != 0xE3069283 {
			t.Errorf("Checksum(123456789) = %08x, want e3069283", got)
		}
		// Every byte passes through the kernel here.
		p := []byte(strings.Repeat("123456789", 1000))[:kernelMin*4]
		if got, want := Checksum(p), std(0, p); got != want {
			t.Errorf("Checksum of %d bytes = %08x, want %08x", len(p), got, want)
		}
	})
}

func TestUpdateEveryLengthAndAlignment(t *testing.T) {
	buf := randomBytes(4096+64, 1)
	eachPath(t, func(t *testing.T) {
		for align := 0; align < 64; align++ {
			for n := 0; n <= 4096; n++ {
				p := buf[align : align+n]
				init := uint32(n*64+align) * 0x9E3779B9
				if got, want := Update(init, p), std(init, p); got != want {
					t.Fatalf("Update(%08x, %d bytes at +%d) = %08x, want %08x", init, n, align, got, want)
				}
			}
		}
	})
}

func TestUpdateRandomLengths(t *testing.T) {
	buf := randomBytes(1<<20+64, 2)
	eachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 200; i++ {
			off, n := rng.Intn(64), rng.Intn(1<<20+1)
			p := buf[off : off+n]
			init := rng.Uint32()
			if got, want := Update(init, p), std(init, p); got != want {
				t.Fatalf("Update(%08x, %d bytes at +%d) = %08x, want %08x", init, n, off, got, want)
			}
		}
	})
}

func TestUpdateEverySplit(t *testing.T) {
	p := randomBytes(2048, 4)
	eachPath(t, func(t *testing.T) {
		for _, init := range []uint32{0, 0xFFFFFFFF, 0x12345678} {
			want := std(init, p)
			for i := 0; i <= len(p); i++ {
				if got := Update(Update(init, p[:i]), p[i:]); got != want {
					t.Fatalf("split at %d, init %08x: %08x, want %08x", i, init, got, want)
				}
			}
		}
	})
}

func TestKernelDetected(t *testing.T) {
	// A broken detector would skip every kernel test silently; where
	// Linux lists what the CPU and the kernel support, it must agree
	// (Linux drops the avx512 flags when it does not save ZMM state).
	if runtime.GOARCH != "amd64" || runtime.GOOS != "linux" {
		t.Skip("checked against /proc/cpuinfo on linux/amd64 only")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(info), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "flags" {
			for _, f := range strings.Fields(v) {
				flags[f] = true
			}
			break
		}
	}
	want := flags["avx512f"] && flags["avx512vl"] && flags["vpclmulqdq"] && flags["sse4_2"]
	if hasKernel != want {
		t.Errorf("hasKernel = %v, but /proc/cpuinfo's flags say %v", hasKernel, want)
	}
}

func TestXPow8nAppendsZeros(t *testing.T) {
	// x^(8n) mod P is what appending n zero bytes does to a CRC state;
	// the kernel's fold constants are built from it.
	for _, n := range []uint64{0, 1, 4, 252, 260, 1 << 20} {
		s := uint32(0xA5A5A5A5)
		zeros := make([]byte, n)
		want := ^std(^s, zeros)
		if got := multModP(xPow8n(n), s); got != want {
			t.Errorf("x^(8·%d)·s = %08x, want %08x", n, got, want)
		}
	}
}

// sink keeps benchmarked CRCs live.
var sink uint32

func BenchmarkUpdate(b *testing.B) {
	for _, n := range []int{4 << 10, 64 << 10, 256 << 10} {
		p := randomBytes(n, 1)
		b.Run(fmt.Sprintf("%dKiB/stdlib", n>>10), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				sink = std(sink, p)
			}
		})
		b.Run(fmt.Sprintf("%dKiB/kernel", n>>10), func(b *testing.B) {
			if !hasKernel {
				b.Skip(noKernel)
			}
			setKernel(b, true)
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				sink = Update(sink, p)
			}
		})
	}
}
