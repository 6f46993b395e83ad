package main

import (
	"runtime"
	"time"
)

// memDelta is the Go runtime's allocation and GC activity over a pass.
type memDelta struct {
	alloc, mallocs uint64
	gcs            uint32
	pause          time.Duration
}

// readMem samples the runtime's counters; it stops the world briefly,
// so it runs only around traced passes, outside the timed interval.
func readMem(on bool) memDelta {
	if !on {
		return memDelta{}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{alloc: ms.TotalAlloc, mallocs: ms.Mallocs, gcs: ms.NumGC, pause: time.Duration(ms.PauseTotalNs)}
}

func (m memDelta) sub(o memDelta) memDelta {
	return memDelta{alloc: m.alloc - o.alloc, mallocs: m.mallocs - o.mallocs, gcs: m.gcs - o.gcs, pause: m.pause - o.pause}
}

// layerMetric is one per-layer figure of a traced run.
type layerMetric struct {
	name  string
	value float64
	unit  string
}

// perLayer names every per-layer metric with its unit, in print order;
// BENCHMARK.json lists the same set. A layer a workload leaves idle
// reports 0.
var perLayer = []struct{ name, unit string }{
	{"proto.store.readat_per_MB", "1/MB"},
	{"proto.store.readat_busy_s_per_GB", "s/GB"},
	{"proto.store.version_per_file", "1/file"},
	{"proto.server.writes_per_block", "1/block"},
	{"proto.server.crc_hit_pct", "%"},
	{"proto.server.requests_per_file", "1/file"},
	{"proto.client.gets_per_file", "1/file"},
	{"proto.client.channels_dialed", "1/pass"},
	{"proto.client.retries", "1/pass"},
	{"proto.client.stalls", "1/pass"},
	{"core.plan_ms", "ms"},
	{"proto.session.run_s", "s"},
	{"proto.sink.writes_per_MB", "1/MB"},
	{"proto.sink.write_busy_s_per_GB", "s/GB"},
	{"proto.sink.close_ms_p50", "ms"},
	{"proto.sink.prealloc_per_file", "1/file"},
	{"proto.journal.appends_per_MB", "1/MB"},
	{"proto.journal.fsyncs_per_pass", "1/pass"},
	{"proto.journal.close_ms", "ms"},
	{"proto.resume.plan_ms", "ms"},
	{"obs.span.spans_per_file", "1/file"},
	{"obs.events_per_MB", "1/MB"},
	{"obs.trace_bytes_per_MB", "B/MB"},
	{"monitor.samples_per_pass", "1/pass"},
	{"monitor.sample_us_p50", "us"},
	{"monitor.report_J_per_GB", "J/GB"},
	{"transfer.advance_calls_per_sweep", "1/pass"},
	{"transfer.advance_us_p50", "us"},
	{"core.search_self_ms", "ms"},
	{"experiments.sweep_s.XSEDE", "s"},
	{"experiments.sweep_s.FutureGrid", "s"},
	{"experiments.sweep_s.DIDCLAB", "s"},
	{"experiments.sla_s.XSEDE", "s"},
	{"experiments.sla_s.FutureGrid", "s"},
	{"experiments.sla_s.DIDCLAB", "s"},
	{"sched.parallel_eff", "ratio"},
	{"runtime.alloc_B_per_MB", "B/MB"},
	{"runtime.mallocs_per_MB", "1/MB"},
	{"runtime.gc_cycles_per_pass", "1/pass"},
	{"runtime.gc_pause_ms_per_pass", "ms"},
	{"run.throughput_MBps", "MB/s"},
	{"run.J_per_GB", "J/GB"},
	{"run.cpu_s_per_GB", "s/GB"},
	{"run.pass_s_p50", "s"},
	{"run.pass_s_tail", "s"},
	{"run.pass_s_tail_pct", "%"},
	{"run.pass_n", "count"},
	{"run.sweep_s_p50", "s"},
	{"run.setup_wall_s", "s"},
	{"run.setup_n", "count"},
	{"ref.loopback_MBps", "MB/s"},
	{"ref.kernel_s", "s"},
	{"bench.verify_s_per_GB", "s/GB"},
	{"bench.trace_overhead_pct", "%"},
}

// layerMetrics computes the per-layer figures of a traced run. Span,
// counter and runtime figures come from the traced passes; the absolute
// run figures from the untraced ones, which the traced passes alternate
// with.
func layerMetrics(sm samples, spans []spanRec, setups []setupSample) []layerMetric {
	traced := func(p passResult) bool { return p.traced }
	plain := func(p passResult) bool { return !p.traced }
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// Work the traced passes did, and the counters they moved.
	var n, files, mb, reportedJ float64
	var verify time.Duration
	var mem memDelta
	var events, traceBytes int64
	counters := map[string]int64{}
	for _, p := range sm.passes {
		if !p.traced {
			continue
		}
		n++
		files += float64(p.files)
		if sm.sim() {
			mb += p.simMB
		} else {
			mb += float64(p.bytes) / (1 << 20)
		}
		verify += p.verify
		mem.alloc += p.mem.alloc
		mem.mallocs += p.mem.mallocs
		mem.gcs += p.mem.gcs
		mem.pause += p.mem.pause
		events += p.events
		traceBytes += p.traceBytes
		reportedJ += p.reportedJ
		for k, v := range p.counters {
			counters[k] += v
		}
	}
	gb := mb / 1024
	c := func(name string) float64 { return float64(counters[name]) }

	// Span aggregates, keyed by name (experiment calls also by testbed).
	self := selfTimes(spans)
	count := map[string]float64{}
	busy := map[string]time.Duration{}
	durs := map[string][]float64{}
	selfSum := map[string]time.Duration{}
	var planMS []float64
	for _, s := range spans {
		key := s.Name
		if s.Name == spSweep || s.Name == spSLA {
			key += "." + s.Attr
		}
		count[key]++
		busy[key] += s.dur()
		durs[key] = append(durs[key], s.dur().Seconds())
		selfSum[key] += self[s.ID]
		if s.Name == spProMC {
			planMS = append(planMS, self[s.ID].Seconds()*1000)
		}
	}

	passS := sm.each(plain, func(p passResult) float64 { return p.iv.wall.Seconds() })
	tailS, tailPct := tail(passS)
	var sweepP50, parEff, throughput, jPerGB, cpuPerGB, loopMBps, kernelS float64
	if sm.sim() {
		sweepP50 = median(passS)
		kernelS = sm.refMedian(func(r refResult) float64 { return r.iv.wall.Seconds() })
		parEff = median(sm.each(plain, func(p passResult) float64 {
			return p.iv.cpu.Seconds() / (p.iv.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
		}))
	} else {
		throughput = median(sm.each(plain, func(p passResult) float64 {
			return float64(p.bytes) / (1 << 20) / p.iv.wall.Seconds()
		}))
		jPerGB = median(sm.each(plain, func(p passResult) float64 {
			return sm.model.joules(p.iv, p.bytes, sm.channels) / (float64(p.bytes) / (1 << 30))
		}))
		cpuPerGB = median(sm.each(plain, func(p passResult) float64 {
			return p.iv.cpu.Seconds() / (float64(p.bytes) / (1 << 30))
		}))
		loopMBps = sm.refMedian(func(r refResult) float64 {
			return float64(r.bytes) / (1 << 20) / r.iv.wall.Seconds()
		})
	}
	setupWall := make([]float64, len(setups))
	for i, s := range setups {
		setupWall[i] = s.wall.Seconds()
	}
	// Tracing overhead: the traced passes' reference-normalised time over
	// the untraced ones'.
	overhead := (div(sm.throughputRel(plain), sm.throughputRel(traced)) - 1) * 100

	values := map[string]float64{
		"proto.store.readat_per_MB":        div(count[spReadAt], mb),
		"proto.store.readat_busy_s_per_GB": div(busy[spReadAt].Seconds(), gb),
		"proto.store.version_per_file":     div(count[spVersion], files),
		"proto.server.writes_per_block":    div(c("server_writev_batches"), c("server_writev_blocks")),
		"proto.server.crc_hit_pct":         div(100*c("server_crc_cache_hits"), c("server_crc_cache_hits")+c("server_crc_cache_misses")),
		"proto.server.requests_per_file":   div(c("server_requests_served"), files),
		"proto.client.gets_per_file":       div(c("gets_issued"), files),
		"proto.client.channels_dialed":     div(c("channels_dialed"), n),
		"proto.client.retries":             div(c("retries_total"), n),
		"proto.client.stalls":              div(c("stalls_detected"), n),
		"core.plan_ms":                     median(planMS),
		"proto.session.run_s":              median(durs[spRun]),
		"proto.sink.writes_per_MB":         div(count[spWriteAt], mb),
		"proto.sink.write_busy_s_per_GB":   div(busy[spWriteAt].Seconds(), gb),
		"proto.sink.close_ms_p50":          median(durs[spClose]) * 1000,
		"proto.sink.prealloc_per_file":     div(count[spPrealloc], files),
		"proto.journal.appends_per_MB":     div(c("journal_appends"), mb),
		"proto.journal.fsyncs_per_pass":    div(c("journal_fsyncs"), n),
		"proto.journal.close_ms":           median(durs[spJournal]) * 1000,
		"proto.resume.plan_ms":             median(durs[spPlanResume]) * 1000,
		"obs.span.spans_per_file":          div(c("spans_started"), files),
		"obs.events_per_MB":                div(float64(events), mb),
		"obs.trace_bytes_per_MB":           div(float64(traceBytes), mb),
		"monitor.samples_per_pass":         div(count[spEnergy], n),
		"monitor.sample_us_p50":            median(durs[spEnergy]) * 1e6,
		"monitor.report_J_per_GB":          div(reportedJ, gb),
		"transfer.advance_calls_per_sweep": div(count[spAdvance], n),
		"transfer.advance_us_p50":          median(durs[spAdvance]) * 1e6,
		"core.search_self_ms":              div((selfSum[spHTEE]+selfSum[spSLAEE]).Seconds()*1000, n),
		"sched.parallel_eff":               parEff,
		"runtime.alloc_B_per_MB":           div(float64(mem.alloc), mb),
		"runtime.mallocs_per_MB":           div(float64(mem.mallocs), mb),
		"runtime.gc_cycles_per_pass":       div(float64(mem.gcs), n),
		"runtime.gc_pause_ms_per_pass":     div(mem.pause.Seconds()*1000, n),
		"run.throughput_MBps":              throughput,
		"run.J_per_GB":                     jPerGB,
		"run.cpu_s_per_GB":                 cpuPerGB,
		"run.pass_s_p50":                   median(passS),
		"run.pass_s_tail":                  tailS,
		"run.pass_s_tail_pct":              tailPct,
		"run.pass_n":                       float64(len(passS)),
		"run.sweep_s_p50":                  sweepP50,
		"run.setup_wall_s":                 median(setupWall),
		"run.setup_n":                      float64(len(setups)),
		"ref.loopback_MBps":                loopMBps,
		"ref.kernel_s":                     kernelS,
		"bench.verify_s_per_GB":            div(verify.Seconds(), gb),
		"bench.trace_overhead_pct":         overhead,
	}
	for _, tb := range []string{"XSEDE", "FutureGrid", "DIDCLAB"} {
		values["experiments.sweep_s."+tb] = median(durs[spSweep+"."+tb])
		values["experiments.sla_s."+tb] = median(durs[spSLA+"."+tb])
	}
	out := make([]layerMetric, len(perLayer))
	for i, l := range perLayer {
		out[i] = layerMetric{name: l.name, value: values[l.name], unit: l.unit}
	}
	return out
}
