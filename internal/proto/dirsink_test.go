package proto

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// BenchmarkDirSink measures the durable sink alone, per file:
// Preallocate, one 64 KiB WriteAt and Close, on a tree of existing files
// truncated to zero — the state perfbench's small_durable workload
// leaves its destination in before every pass. One op is one file; the
// tree is truncated again, untimed, before each round over it.
func BenchmarkDirSink(b *testing.B) {
	const files, size = 400, 64 << 10
	dir := b.TempDir()
	names := make([]string, files)
	for i := range names {
		names[i] = fmt.Sprintf("d%d/f%03d.bin", i%8, i)
		path := filepath.Join(dir, filepath.FromSlash(names[i]))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			b.Fatal(err)
		}
	}
	payload := make([]byte, size)
	sink := NewDirSink(dir)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % files
		if k == 0 && i > 0 {
			b.StopTimer()
			for _, name := range names {
				if err := os.Truncate(filepath.Join(dir, filepath.FromSlash(name)), 0); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
		}
		name := names[k]
		if err := sink.Preallocate(name, size); err != nil {
			b.Fatal(err)
		}
		if _, err := sink.WriteAt(name, payload, 0); err != nil {
			b.Fatal(err)
		}
		if err := sink.Close(name); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/file")
}
