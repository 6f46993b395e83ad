// Command energytransfer is the client CLI: it moves a remote server's
// dataset using one of the energy-aware algorithms (or a baseline) over
// the real-TCP stack, reporting throughput and estimated energy. Energy
// comes from hardware RAPL counters when the host exposes them, else
// from the paper's fine-grained power model over procfs utilization.
//
// Usage:
//
//	energytransfer -server host:7632 -algo htee -max-channels 8 -out /dst
//	energytransfer -server host:7632 -algo slaee -sla 0.9 -max-mbps 900 -verify
//	energytransfer -addrs hostA:7632=2,hostB:7632 -algo go -out /dst
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/didclab/eta/internal/cliutil"
	"github.com/didclab/eta/internal/core"
	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/monitor"
	"github.com/didclab/eta/internal/netem"
	"github.com/didclab/eta/internal/obs"
	"github.com/didclab/eta/internal/obs/span"
	"github.com/didclab/eta/internal/power"
	"github.com/didclab/eta/internal/proto"
	"github.com/didclab/eta/internal/trace"
	"github.com/didclab/eta/internal/transfer"
	"github.com/didclab/eta/internal/units"
)

func main() {
	server := flag.String("server", "127.0.0.1:7632", "xferd address")
	addrs := flag.String("addrs", "", "weighted xferd replica list (addr, addr=weight or host:port:weight, comma-separated); overrides -server")
	algo := flag.String("algo", "htee", "algorithm: mine|htee|slaee|guc|go|sc|promc|bf")
	maxChannels := flag.Int("max-channels", 8, "concurrency budget")
	sla := flag.Float64("sla", 0.9, "SLAEE throughput target as a fraction of -max-mbps")
	maxMbps := flag.Float64("max-mbps", 0, "SLAEE: maximum achievable throughput in Mbps (required for slaee)")
	out := flag.String("out", "", "write received files into this directory")
	verify := flag.Bool("verify", false, "discard payload, verify against synthetic content")
	resume := flag.Bool("resume", false, "skip bytes already present under -out")
	checksum := flag.Bool("checksum", false, "verify each file's CRC-32C against the server's")
	retries := flag.Int("retries", 3, "re-attempts per file after transport failures")
	bw := flag.String("bandwidth", "1gbps", "assumed path bandwidth (BDP input)")
	rtt := flag.Duration("rtt", 10*time.Millisecond, "assumed path RTT (BDP input)")
	buf := flag.String("buffer", "32MB", "assumed max TCP buffer (parallelism input)")
	samplesOut := flag.String("samples", "", "write the 5s sample timeline to this CSV file")
	traceOut := flag.String("trace", "", "record the JSONL event stream with spans and energy samples to this file (replay with xfertrace)")
	flag.Parse()

	opts := options{
		server: *server, addrs: *addrs, algo: *algo, maxChannels: *maxChannels,
		sla: *sla, maxMbps: *maxMbps, out: *out, verify: *verify,
		resume: *resume, checksum: *checksum, retries: *retries,
		bw: *bw, rtt: *rtt, buf: *buf, samplesOut: *samplesOut,
		traceOut: *traceOut,
	}
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "energytransfer:", err)
		os.Exit(1)
	}
}

// options carries the parsed command line.
type options struct {
	server, addrs, algo string
	maxChannels         int
	sla, maxMbps        float64
	out                 string
	verify, resume      bool
	checksum            bool
	retries             int
	bw, buf, samplesOut string
	traceOut            string
	rtt                 time.Duration
}

func run(o options) error {
	bandwidth, err := cliutil.ParseRate(o.bw)
	if err != nil {
		return err
	}
	bufSize, err := cliutil.ParseSize(o.buf)
	if err != nil {
		return err
	}

	var sink proto.Sink
	switch {
	case o.verify && o.out != "":
		return fmt.Errorf("-out and -verify are mutually exclusive")
	case o.verify:
		sink = proto.NewVerifySink()
	case o.out != "":
		sink = proto.NewDirSink(o.out)
	default:
		return fmt.Errorf("one of -out or -verify is required")
	}
	if o.resume && o.out == "" {
		return fmt.Errorf("-resume needs -out")
	}

	client := &proto.Client{Addr: o.server, Counters: &proto.Counters{}, VerifyChecksums: o.checksum}
	serversPerSite := 1
	if o.addrs != "" {
		eps, err := proto.ParseEndpoints(o.addrs)
		if err != nil {
			return fmt.Errorf("-addrs: %w", err)
		}
		pool, err := proto.NewEndpointPool(eps...)
		if err != nil {
			return fmt.Errorf("-addrs: %w", err)
		}
		client.Endpoints = pool
		// The algorithms' parameter formulas see the replica count the
		// same way the simulator's GO baseline does.
		serversPerSite = pool.Len()
	}
	files, err := client.List()
	if err != nil {
		return fmt.Errorf("listing %s: %w", client.Target(), err)
	}
	ds := dataset.Dataset{Files: files}
	log.Printf("dataset: %d files, %v", ds.Count(), ds.TotalSize())

	var resume *proto.RecoveryPlan
	if o.resume {
		if resume, err = proto.PlanResume(o.out, files, proto.ResumeOptions{}); err != nil {
			return fmt.Errorf("planning resume: %w", err)
		}
		partial := 0
		for _, rs := range resume.ByFile {
			if rs[0].Offset > 0 {
				partial++
			}
		}
		log.Printf("resume: %v already present (%d files complete, %d partial)",
			resume.Skipped, ds.Count()-len(resume.ByFile), partial)
	}

	// -trace records the full JSONL event stream — spans, transfer
	// events and the energy-model sample curve — for cmd/xfertrace.
	var events *obs.Log
	var tracer *span.Tracer
	var metrics *obs.Registry
	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
		// The buffered log owns f: its deferred Close flushes the tail
		// of the stream before closing the file.
		events = obs.NewBufferedLog(f, 0)
		defer events.Close()
		metrics = obs.NewRegistry()
		tracer = span.NewTracer(metrics, events)
	}

	localModel := power.FineGrained{Coeff: power.Coefficients{
		CPU: power.PaperCPUQuad, Mem: 0.11, Disk: 0.08, NIC: 0.2,
	}}
	hostModel := monitor.LocalServerModel(runtime.NumCPU(), bandwidth, 0)
	energy, usedRAPL, err := monitor.AutoSource(monitor.Monitor{}, hostModel, localModel)
	if err != nil {
		return fmt.Errorf("setting up energy estimation: %w", err)
	}
	if usedRAPL {
		log.Print("energy: hardware RAPL counters")
	} else {
		log.Print("energy: fine-grained model over procfs utilization")
		if ms, ok := energy.(*monitor.ModelSource); ok && tracer != nil {
			// The model source feeds the tracer at its own sampling
			// cadence, so span joules estimates stay current and the
			// recorded curve is what xfertrace attributes from.
			ms.Events = events
			ms.Trace = tracer
		}
	}

	exec := &proto.Executor{
		Client: client,
		Sink:   sink,
		Energy: energy,
		Environment: transfer.Environment{
			Path: netem.Path{
				Bandwidth:       bandwidth,
				RTT:             o.rtt,
				MaxTCPBuffer:    bufSize,
				EffStreamBuffer: bufSize / 8,
			},
			MaxChannels:    o.maxChannels,
			ServersPerSite: serversPerSite,
		},
		Resume:     resume,
		MaxRetries: o.retries,
		Metrics:    metrics,
		Events:     events,
		Trace:      tracer,
		Label:      strings.ToUpper(o.algo),
	}

	ctx := context.Background()
	start := time.Now()
	var report transfer.Report
	switch strings.ToLower(o.algo) {
	case "mine":
		report, err = core.MinE(ctx, exec, ds, o.maxChannels)
	case "htee":
		var res core.HTEEResult
		res, err = core.HTEE(ctx, exec, ds, o.maxChannels)
		if err == nil {
			log.Printf("HTEE settled on concurrency %d", res.ChosenConcurrency)
			report = res.Report
		}
	case "slaee":
		if o.maxMbps <= 0 {
			return fmt.Errorf("slaee needs -max-mbps (the reference maximum throughput)")
		}
		var res core.SLAResult
		res, err = core.SLAEE(ctx, exec, ds, units.Rate(o.maxMbps)*units.Mbps, o.sla, o.maxChannels)
		if err == nil {
			log.Printf("SLAEE target %v, deviation %+.1f%%, final concurrency %d",
				res.Target, res.Deviation(), res.FinalConcurrency)
			report = res.Report
		}
	case "guc":
		report, err = core.GUC(ctx, exec, ds, core.GUCOptions{})
	case "go":
		report, err = core.GO(ctx, exec, ds)
	case "sc":
		report, err = core.SC(ctx, exec, ds, o.maxChannels)
	case "promc":
		report, err = core.ProMC(ctx, exec, ds, o.maxChannels)
	case "bf":
		var res core.BFResult
		// One shared executor over one real link: probe the levels
		// serially so they do not distort each other's measurements.
		res, err = core.BFWith(ctx, func() transfer.Executor { return exec },
			ds, o.maxChannels, core.BFOptions{Workers: 1})
		if err == nil {
			log.Printf("brute force best concurrency: %d", res.Best)
			report = res.BestReport()
		}
	default:
		return fmt.Errorf("unknown algorithm %q", o.algo)
	}
	if err != nil {
		return err
	}

	fmt.Printf("%s: %v in %v → %v, energy %v (avg %v)\n",
		report.Algorithm, report.Bytes, time.Since(start).Round(time.Millisecond),
		report.Throughput, report.EndSystemEnergy, report.AvgPower)
	if report.EnergyJoules > 0 && o.traceOut != "" {
		fmt.Printf("span attribution: %.1f J on the transfer root (replay with: xfertrace %s)\n",
			report.EnergyJoules, o.traceOut)
	}
	if v, ok := sink.(*proto.VerifySink); ok {
		if bad := v.Corrupt(); len(bad) > 0 {
			return fmt.Errorf("integrity check failed for %d ranges: %v", len(bad), bad[:minI(3, len(bad))])
		}
		fmt.Println("integrity: all payload bytes verified")
	}
	if o.samplesOut != "" {
		f, err := os.Create(o.samplesOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.WriteCSV(f, report.Samples); err != nil {
			return err
		}
		log.Printf("samples: wrote %d windows to %s", len(report.Samples), o.samplesOut)
	}
	return nil
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}
