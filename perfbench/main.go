// Command perfbench is the repository's end-to-end benchmark. It runs
// one closed-loop workload — one transfer or one simulator sweep in
// flight at a time, client, server and load in this one process — for a
// fixed time, checks every output, and prints the metrics with their
// units. The last line of standard output is the result as JSON.
//
//	perfbench -workload bulk|small_durable|sim_sweep -seed N -seconds S -trace 0|1
//
// Time and energy are reported as ratios to a reference measured in the
// same process between the passes, because the speed of a small shared
// VM drifts by more than the bounds the metrics are gated on. NOTES.md
// lists the workloads, metrics and layer map.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// setupEvery is how often a run sets the workload up afresh: before
// every setupEvery-th pass. setup_s is taken over all these setups, so
// they span the whole measured time as the passes do.
const setupEvery = 3

// hardLimit stops a run that hangs: the benchmark must exit within 180 s.
const hardLimit = 170 * time.Second

// workload is one benchmark workload, set up and ready for passes.
type workload interface {
	// pass runs the program once over the workload and verifies its
	// output; traced turns the benchmark's spans on for the pass.
	pass(ctx context.Context, traced bool) (passResult, error)
	// reference measures one round of the workload's reference.
	reference() (refResult, error)
	close()
}

// passResult is what one pass measured.
type passResult struct {
	iv         interval
	bytes      int64 // payload bytes (transfers); 0 for the simulator
	files      int
	simMB      float64 // simulated payload (sim_sweep)
	reportedJ  float64 // the program's own energy report
	verify     time.Duration
	counters   map[string]int64 // registry deltas over the pass
	mem        memDelta
	events     int64
	traceBytes int64
	traced     bool
}

// refResult is one reference round: the bare copy of bytes payload
// bytes, or one CPU-kernel run (bytes 0).
type refResult struct {
	iv    interval
	bytes int64
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	dir      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "bulk, small_durable or sim_sweep")
	flag.Uint64Var(&o.seed, "seed", 1, "fixture seed")
	flag.IntVar(&o.seconds, "seconds", 10, "how long the passes are measured")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&o.dir, "dir", ".bench_build", "directory for fixtures, destinations and span files")
	flag.Parse()
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be ≥ 1 and -trace 0 or 1")
		os.Exit(2)
	}
	work := filepath.Join(o.dir, fmt.Sprintf("work-%d", os.Getpid()))
	guard := time.AfterFunc(hardLimit, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded", hardLimit)
		os.RemoveAll(work)
		os.Exit(3)
	})
	res, err := run(context.Background(), o, work)
	guard.Stop()
	if rmErr := os.RemoveAll(work); rmErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", rmErr)
	}
	// Let the filesystem retire the removed trees now rather than during
	// the next run.
	syscall.Sync()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	context map[string]any
	names   []string // metric print order
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) print(w *os.File) {
	ctx, _ := json.Marshal(r.context)
	fmt.Fprintf(w, "context %s\n", ctx)
	for _, n := range r.names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, _ := json.Marshal(r)
	fmt.Fprintf(w, "%s\n", line)
}

func (r *result) add(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.names = append(r.names, name)
}

// run sets the workload up, then alternates reference rounds and passes
// for the configured time, setting the workload up afresh before every
// setupEvery-th pass.
//
// A traced run keeps a second, instrumented copy of the workload and
// alternates passes between the two: the untraced passes run exactly
// what a --trace 0 run runs, so the difference between the two kinds of
// pass is the whole cost of tracing.
func run(ctx context.Context, o options, work string) (*result, error) {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	var rec *recorder
	if o.trace == 1 {
		rec = newRecorder()
	}
	open, err := prepare(o, work)
	if err != nil {
		return nil, err
	}
	// The first setup also creates the destination tree, and the first,
	// discarded reference round the reference tree; neither is counted.
	w, _, err := open(ctx, nil)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer func() {
		if w != nil {
			w.close()
		}
	}()
	if _, err := w.reference(); err != nil {
		return nil, err
	}
	var wt workload
	if rec != nil {
		if wt, _, err = open(ctx, rec); err != nil {
			return nil, fmt.Errorf("traced setup: %w", err)
		}
		defer wt.close()
	}

	var refs []refResult
	var passes []passResult
	var setups []setupSample
	res := &result{Metrics: map[string]metric{}}
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		var setup time.Duration
		if i%setupEvery == 0 {
			w.close()
			if w, setup, err = open(ctx, nil); err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
		}
		r, err := w.reference()
		if err != nil {
			return nil, err
		}
		refs = append(refs, r)
		if setup > 0 {
			setups = append(setups, setupSample{wall: setup, ref: r})
		}
		traced := rec != nil && i%2 == 1
		pw := w
		if traced {
			pw = wt
			rec.on.Store(true)
		}
		// Each pass starts on a collected heap, so garbage left by the
		// reference or the last pass is not charged to it.
		runtime.GC()
		p, err := pw.pass(ctx, traced)
		if rec != nil {
			rec.on.Store(false)
		}
		p.traced = traced
		res.Attempted++
		if err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: pass %d failed: %v\n", i, err)
			continue
		}
		passes = append(passes, p)
	}
	res.Correct = res.Failed == 0
	res.context = runContext(o, work)
	res.context["setups"] = len(setups)
	if len(passes) == 0 {
		return res, nil
	}

	sm := newSamples(o.workload, passes, refs)
	if rec == nil {
		res.add("throughput_rel", sm.throughputRel(nil), "ratio")
		res.add("energy_rel", sm.energyRel(nil), "ratio")
		res.add("sweep_rel", 1/sm.throughputRel(nil), "ratio")
		res.add("rss_peak_MB", peakRSSMB(), "MB")
		res.add("setup_s", setupSeconds(o.workload, setups), "s")
		return res, nil
	}
	for _, m := range layerMetrics(sm, rec.snapshot(), setups) {
		res.add(m.name, m.value, m.unit)
	}
	spanFile := filepath.Join(o.dir, "spans-"+o.workload+".jsonl")
	if err := rec.writeFile(spanFile); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	res.context["span_file"] = spanFile
	return res, nil
}

// prepare generates the workload's fixture (untimed) and returns the
// function that sets the workload up once and reports its setup time.
// rec, when set, instruments the workload for a traced run.
func prepare(o options, work string) (func(context.Context, *recorder) (workload, time.Duration, error), error) {
	switch o.workload {
	case "bulk", "small_durable":
		durable := o.workload == "small_durable"
		gen := bulkFixture
		if durable {
			gen = smallFixture
		}
		fx, err := gen(filepath.Join(work, "src"), o.seed)
		if err != nil {
			return nil, fmt.Errorf("generating fixture: %w", err)
		}
		return func(ctx context.Context, rec *recorder) (workload, time.Duration, error) {
			t0 := time.Now()
			b, err := openTransfer(durable, fx, work, rec, durable || rec != nil)
			if err != nil {
				return nil, 0, err
			}
			started := time.Since(t0)
			// The cold pass fills the server's CRC sidecar and the page
			// cache; its verification is not part of setup.
			p, err := b.pass(ctx, false)
			if err != nil {
				b.close()
				return nil, 0, fmt.Errorf("cold pass: %w", err)
			}
			return b, started + p.iv.wall, nil
		}, nil
	case "sim_sweep":
		// Every setup's first pass must reproduce the first setup's.
		var digest string
		return func(ctx context.Context, rec *recorder) (workload, time.Duration, error) {
			t0 := time.Now()
			s := openSim(rec)
			s.digest = digest
			p, err := s.pass(ctx, false)
			if err != nil {
				return nil, 0, fmt.Errorf("first pass: %w", err)
			}
			digest = s.digest
			return s, time.Since(t0) - p.verify, nil
		}, nil
	}
	return nil, errors.New("unknown -workload " + o.workload)
}

// runContext describes the host and run, printed beside every result.
func runContext(o options, work string) map[string]any {
	fs := fsType(work)
	_, raplErr := os.ReadFile("/sys/class/powercap/intel-rapl:0/energy_uj")
	return map[string]any{
		"workload":      o.workload,
		"seed":          o.seed,
		"seconds":       o.seconds,
		"trace":         o.trace,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"fixture_fs":    fs,
		"tmpfs_missing": fs != "tmpfs",
		"rapl_readable": raplErr == nil,
		"channels":      transferChannels(),
	}
}

// samples holds a run's successful passes and its reference rounds,
// which alternate with the passes. A metric is a ratio of medians — the
// passes' median against the references' median over the same stretch
// of time — so drift in the host's speed cancels.
type samples struct {
	workload string
	passes   []passResult
	refs     []refResult
	channels int
	model    energyModel
}

func newSamples(workload string, passes []passResult, refs []refResult) samples {
	s := samples{workload: workload, passes: passes, refs: refs, channels: transferChannels(), model: newEnergyModel()}
	if s.sim() {
		s.channels = 1
	}
	return s
}

func (s samples) sim() bool { return s.workload == "sim_sweep" }

// each returns f over the passes keep selects (nil: all).
func (s samples) each(keep func(passResult) bool, f func(passResult) float64) []float64 {
	var out []float64
	for _, p := range s.passes {
		if keep == nil || keep(p) {
			out = append(out, f(p))
		}
	}
	return out
}

func (s samples) refMedian(f func(refResult) float64) float64 {
	vals := make([]float64, len(s.refs))
	for i, r := range s.refs {
		vals[i] = f(r)
	}
	return median(vals)
}

// perUnit divides by the bytes moved, when the work is a transfer.
func perUnit(v float64, bytes int64) float64 {
	if bytes == 0 {
		return v
	}
	return v / float64(bytes)
}

// throughputRel is the passes' rate over the reference's: bytes per
// second against the bare copy for transfers, runs per second against
// the CPU kernel for the simulator. sweep_rel is its reciprocal.
func (s samples) throughputRel(keep func(passResult) bool) float64 {
	pass := median(s.each(keep, func(p passResult) float64 { return perUnit(p.iv.wall.Seconds(), p.bytes) }))
	ref := s.refMedian(func(r refResult) float64 { return perUnit(r.iv.wall.Seconds(), r.bytes) })
	return ref / pass
}

// energyRel is the passes' modelled energy per unit of work over the
// reference's.
func (s samples) energyRel(keep func(passResult) bool) float64 {
	pass := median(s.each(keep, func(p passResult) float64 {
		return perUnit(s.model.joules(p.iv, p.bytes, s.channels), p.bytes)
	}))
	ref := s.refMedian(func(r refResult) float64 {
		return perUnit(s.model.joules(r.iv, r.bytes, s.channels), r.bytes)
	})
	return pass / ref
}
