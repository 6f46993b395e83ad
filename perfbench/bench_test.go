package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/didclab/eta/internal/core"
	"github.com/didclab/eta/internal/units"
)

// testFixture writes a small fixture under a fresh directory.
func testFixture(t *testing.T, sizes []int64) (*fixture, string) {
	t.Helper()
	dir := t.TempDir()
	fx, err := writeFixture(filepath.Join(dir, "src"), 7, sizes, func(i int) string { return fmt.Sprintf("d%d/f%03d.bin", i%3, i) })
	if err != nil {
		t.Fatal(err)
	}
	return fx, dir
}

// flipByte corrupts one source byte and moves the file's mtime, as an
// edit would, so the server's CRC sidecar sees a new file.
func flipByte(t *testing.T, fx *fixture, file int, off int64) {
	t.Helper()
	path := filepath.Join(fx.root, filepath.FromSlash(fx.files[file].name))
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x5a
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	later := time.Now().Add(time.Hour)
	if err := os.Chtimes(path, later, later); err != nil {
		t.Fatal(err)
	}
}

// passAfterFlip runs a clean pass, flips one byte of the source, and
// returns the next pass's error.
func passAfterFlip(t *testing.T, durable bool, sizes []int64, file int, off int64) error {
	t.Helper()
	fx, dir := testFixture(t, sizes)
	b, err := openTransfer(durable, fx, dir, nil, durable)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	ctx := context.Background()
	if _, err := b.pass(ctx, false); err != nil {
		t.Fatalf("clean pass failed: %v", err)
	}
	flipByte(t, fx, file, off)
	_, err = b.pass(ctx, false)
	return err
}

func TestBulkCatchesFlippedByte(t *testing.T) {
	err := passAfterFlip(t, false, []int64{3<<20 + 5, 1 << 20}, 0, 1<<20+3)
	if err == nil || !strings.Contains(err.Error(), "differs from the fixture") {
		t.Fatalf("flipped byte not caught: %v", err)
	}
}

func TestSmallDurableCatchesFlippedByte(t *testing.T) {
	sizes := make([]int64, 40)
	for i := range sizes {
		sizes[i] = 8<<10 + int64(i)*331
	}
	err := passAfterFlip(t, true, sizes, 17, 4000)
	if err == nil || !strings.Contains(err.Error(), "crc") {
		t.Fatalf("flipped byte not caught: %v", err)
	}
}

func TestSimCatchesPerturbedReport(t *testing.T) {
	s := openSim(nil)
	ctx := context.Background()
	p, err := s.run(ctx, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.verify(p); err != nil {
		t.Fatalf("clean pass failed: %v", err)
	}
	sw := p.sweeps[0]
	level := sw.Levels[0]
	r := sw.Reports[core.NameProMC][level]
	// The smallest change a float can take, far below what the rendered
	// tables show.
	r.Throughput = units.Rate(math.Nextafter(float64(r.Throughput), math.Inf(1)))
	sw.Reports[core.NameProMC][level] = r
	if err := s.verify(p); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("perturbed report not caught: %v", err)
	}
}

// The traced run must drive the program down the same path as an
// unwrapped one: a wrapper that hid Versioner would turn the CRC
// sidecar off. How many queued blocks one writev gathers depends on
// timing, so the fixture makes it deterministic: single-block files and
// a path short enough that core plans one GET in flight per channel.
func TestTracedCountersMatchUnwrapped(t *testing.T) {
	sizes := make([]int64, 12)
	for i := range sizes {
		sizes[i] = 100<<10 + int64(i)*1000
	}
	fx, dir := testFixture(t, sizes)
	figures := func(rec *recorder, sub string) (hitPct, writesPerBlock float64) {
		b, err := openTransfer(false, fx, filepath.Join(dir, sub), rec, true)
		if err != nil {
			t.Fatal(err)
		}
		defer b.close()
		b.env.Path.RTT = time.Microsecond
		ctx := context.Background()
		if _, err := b.pass(ctx, false); err != nil {
			t.Fatal(err)
		}
		if rec != nil {
			rec.on.Store(true)
		}
		p, err := b.pass(ctx, rec != nil)
		if err != nil {
			t.Fatal(err)
		}
		c := p.counters
		hits, misses := c["server_crc_cache_hits"], c["server_crc_cache_misses"]
		return 100 * float64(hits) / float64(hits+misses),
			float64(c["server_writev_batches"]) / float64(c["server_writev_blocks"])
	}
	rec := newRecorder()
	hitT, wpbT := figures(rec, "traced")
	hitU, wpbU := figures(nil, "plain")
	if hitT != hitU || wpbT != wpbU {
		t.Fatalf("traced crc_hit_pct %.1f writes_per_block %.3f, unwrapped %.1f %.3f", hitT, wpbT, hitU, wpbU)
	}
	if hitT != 100 {
		t.Fatalf("crc_hit_pct %.1f after a warm-up pass, want 100", hitT)
	}
	var reads, versions int
	for _, s := range rec.snapshot() {
		switch s.Name {
		case spReadAt:
			reads++
		case spVersion:
			versions++
		}
	}
	if reads == 0 || versions == 0 {
		t.Fatalf("traced pass recorded %d ReadAt and %d Version spans", reads, versions)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []spanRec{
		{ID: 1, Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Start: 1 * ms, End: 3 * ms},
		{ID: 3, Parent: 1, Start: 2 * ms, End: 5 * ms},
		{ID: 4, Parent: 1, Start: 7 * ms, End: 8 * ms},
	}
	if got := selfTimes(spans)[1]; got != 5*ms {
		t.Fatalf("self time %v, want 5ms", got)
	}
}

// BENCHMARK.json must name exactly the metrics the benchmark prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, benchmark prints %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	want := map[string]string{"throughput_rel": "ratio", "energy_rel": "ratio", "sweep_rel": "ratio", "rss_peak_MB": "MB", "setup_s": "s"}
	if len(spec.EndToEnd) != len(want) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, want %d", len(spec.EndToEnd), len(want))
	}
	for _, m := range spec.EndToEnd {
		if want[m.Name] != m.Unit {
			t.Errorf("end_to_end %s %s not printed by the benchmark", m.Name, m.Unit)
		}
	}
}
