package main

import (
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"github.com/didclab/eta/internal/endsys"
	"github.com/didclab/eta/internal/monitor"
	"github.com/didclab/eta/internal/power"
	"github.com/didclab/eta/internal/units"
)

// cpuTime returns the CPU time this process has used so far. Client,
// server and load share the process, so the delta over a pass is the
// whole transfer's CPU cost and nothing else's — unlike /proc/stat,
// which counts steal and neighbours.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// span of work measured from outside: wall time and process CPU time.
type interval struct {
	wall time.Duration
	cpu  time.Duration
}

// measure times fn by wall clock and process CPU.
func measure(fn func() error) (interval, error) {
	c0, t0 := cpuTime(), time.Now()
	err := fn()
	return interval{wall: time.Since(t0), cpu: cpuTime() - c0}, err
}

// energyModel is cmd/energytransfer's fine-grained model, fed with
// process-attributed utilisation: CPU from getrusage, NIC and memory
// from payload bytes the way monitor.ModelSource derives them.
type energyModel struct {
	model  power.FineGrained
	server endsys.Server
	procs  int // CPUs the CPU percentage is taken over
}

// energyPathRate is the declared path bandwidth, and the NIC line rate
// the program's own energy source is given, as energytransfer's
// -bandwidth sets both.
var energyPathRate = 10 * units.Gbps

// loopbackLineRate is the line rate the benchmark's model takes NIC
// utilisation against. Loopback copies run at tens of Gbps; a 10 Gbps
// line would clamp the reference's NIC term at 100% and break the
// per-byte comparison.
var loopbackLineRate = 100 * units.Gbps

// energytransferModel is the power model cmd/energytransfer estimates
// with on hosts without RAPL.
var energytransferModel = power.FineGrained{Coeff: power.Coefficients{
	CPU: power.PaperCPUQuad, Mem: 0.11, Disk: 0.08, NIC: 0.2,
}}

func newEnergyModel() energyModel {
	return energyModel{
		model:  energytransferModel,
		server: monitor.LocalServerModel(runtime.NumCPU(), loopbackLineRate, 0),
		procs:  runtime.NumCPU(),
	}
}

// joules models the energy of one measured interval that moved bytes
// payload bytes over channels transfer processes.
func (m energyModel) joules(iv interval, bytes int64, channels int) float64 {
	secs := iv.wall.Seconds()
	if secs <= 0 {
		return 0
	}
	u := endsys.Utilization{CPU: iv.cpu.Seconds() / (secs * float64(m.procs)) * 100}
	u.NIC = units.ClampF(float64(bytes)*8/secs/float64(m.server.NICRate)*100, 0, 100)
	u.Mem = units.ClampF(u.NIC*m.server.MemPerGbps/10, 0, 100)
	return float64(m.model.Power(u, channels)) * secs
}

// setupSample is one setup's wall time and the reference round run
// right after it.
type setupSample struct {
	wall time.Duration
	ref  refResult
}

// Nominal reference speeds: round figures near the references' speeds
// on the 2-core VM the benchmark was sized on (NOTES.md). setup_s
// states setup time at these speeds.
var (
	nominalCopyMBps = map[string]float64{"bulk": 4500, "small_durable": 1400}
	nominalKernelS  = 0.2
)

// setupSeconds is setup_s: the median of each setup's time over the
// reference round run right after it, scaled to the nominal reference
// speed. Setup time is an absolute time, and a ratio to a reference
// measured beside it cancels the host's drift as the other time metrics
// do; the scale keeps it in seconds.
func setupSeconds(workload string, setups []setupSample) float64 {
	ratios := make([]float64, len(setups))
	for i, s := range setups {
		ratios[i] = s.wall.Seconds() / perUnit(s.ref.iv.wall.Seconds(), s.ref.bytes)
	}
	if workload == "sim_sweep" {
		return median(ratios) * nominalKernelS
	}
	return median(ratios) / (nominalCopyMBps[workload] * (1 << 20))
}

// kernelSink keeps the kernel's result live so the compiler cannot drop
// the work.
var kernelSink float64

// kernelIters sizes the CPU kernel; about 0.2 s on a 2-core VM.
const kernelIters = 150

// cpuKernel is the same-process reference for the simulator: a fixed
// stdlib workload on GOMAXPROCS goroutines. Like a simulator pass it
// allocates heavily — short-lived linked records, a map and a slice per
// iteration — so the garbage collector runs during it as it does during
// a pass. A kernel that did not allocate tracked the pass's time less
// closely (NOTES.md).
func cpuKernel() {
	type record struct {
		key  float64
		next *record
		vals []int
	}
	procs := runtime.GOMAXPROCS(0)
	sums := make([]float64, procs)
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(uint64(g), 7))
			for it := 0; it < kernelIters; it++ {
				byKey := make(map[int]*record, 512)
				var head *record
				for i := 0; i < 4000; i++ {
					head = &record{key: r.Float64(), next: head, vals: make([]int, 8)}
					byKey[i%700] = head
				}
				keys := make([]float64, 0, 4000)
				for n := head; n != nil; n = n.next {
					keys = append(keys, n.key)
				}
				sort.Float64s(keys)
				sums[g] += keys[len(keys)/2] + float64(len(byKey))
			}
		}(g)
	}
	wg.Wait()
	for _, s := range sums {
		kernelSink += s
	}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// tail returns the highest order statistic that still has at least ten
// samples above it, and the percentile it sits at; with fewer than 11
// samples it falls back to the median.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n < 11 {
		return median(xs), 50
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := n - 11
	return s[idx], 100 * float64(idx+1) / float64(n)
}
