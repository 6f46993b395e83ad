// Command energytransfer is the client CLI: it moves a remote server's
// dataset using one of the energy-aware algorithms (or a baseline) over
// the real-TCP stack, reporting throughput and estimated energy. Energy
// comes from hardware RAPL counters when the host exposes them, else
// from the paper's fine-grained power model over procfs utilization.
// -algo sweep instead varies one protocol parameter and prints a
// throughput table, each point a one-chunk plan through the same
// executor the algorithms steer.
//
// With -out the destination keeps a receipt journal, and every run
// plans against what the destination already holds: a re-run after a
// crash fetches only the missing bytes, and the journal is removed once
// the destination is complete.
//
// Usage:
//
//	energytransfer -server host:7632 -algo htee -max-channels 8 -out /dst
//	energytransfer -server host:7632 -algo slaee -sla 0.9 -max-mbps 900 -verify
//	energytransfer -addrs hostA:7632=2,hostB:7632 -algo go -out /dst
//	energytransfer -server host:7632 -algo sweep -sweep parallelism -values 1,2,4
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/didclab/eta/internal/cliutil"
	"github.com/didclab/eta/internal/core"
	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/monitor"
	"github.com/didclab/eta/internal/netem"
	"github.com/didclab/eta/internal/proto"
	"github.com/didclab/eta/internal/transfer"
	"github.com/didclab/eta/internal/units"
)

func main() {
	var o options
	flag.StringVar(&o.server, "server", "127.0.0.1:7632", "xferd address")
	flag.StringVar(&o.addrs, "addrs", "", "weighted xferd replica list (addr, addr=weight or host:port:weight, comma-separated); overrides -server")
	flag.StringVar(&o.algo, "algo", "htee", "algorithm: mine|htee|slaee|guc|go|sc|promc|bf, or sweep")
	flag.IntVar(&o.maxChannels, "max-channels", 8, "concurrency budget; also the fixed concurrency of a parallelism or pipelining sweep")
	flag.Float64Var(&o.sla, "sla", 0.9, "SLAEE throughput target as a fraction of -max-mbps")
	flag.Float64Var(&o.maxMbps, "max-mbps", 0, "SLAEE: maximum achievable throughput in Mbps (required for slaee)")
	flag.StringVar(&o.out, "out", "", "write received files into this directory, fetching only what it does not yet hold")
	flag.BoolVar(&o.verify, "verify", false, "discard payload, verify against synthetic content")
	flag.BoolVar(&o.checksum, "checksum", false, "verify each file's CRC-32C against the server's")
	flag.IntVar(&o.retries, "retries", 3, "re-attempts per file after transport failures")
	flag.DurationVar(&o.stallTimeout, "stall-timeout", 0, "fail a channel whose pending requests see no bytes for this long (0 disables the watchdog)")
	flag.StringVar(&o.bw, "bandwidth", "1gbps", "assumed path bandwidth (BDP input)")
	flag.DurationVar(&o.rtt, "rtt", 10*time.Millisecond, "assumed path RTT (BDP input)")
	flag.StringVar(&o.buf, "buffer", "32MB", "assumed max TCP buffer (parallelism input)")
	flag.StringVar(&o.sweep, "sweep", "concurrency", "sweep: parameter to vary: concurrency|parallelism|pipelining")
	flag.StringVar(&o.values, "values", "1,2,4,8", "sweep: comma-separated parameter values")
	flag.StringVar(&o.perPoint, "per-point", "64MB", "sweep: payload per point (with -out, each point fetches what the destination lacks)")
	flag.IntVar(&o.parallelism, "parallelism", 1, "sweep: fixed parallelism when varying another parameter")
	flag.IntVar(&o.pipelining, "pipelining", 2, "sweep: fixed pipelining when varying another parameter")
	flag.StringVar(&o.obs.Metrics, "metrics", "", "write a JSON metrics snapshot to this file on exit")
	o.obs.Register(flag.CommandLine)
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "energytransfer:", err)
		os.Exit(1)
	}
}

// options carries the parsed command line.
type options struct {
	server, addrs, algo     string
	maxChannels             int
	sla, maxMbps            float64
	out                     string
	verify, checksum        bool
	retries                 int
	stallTimeout            time.Duration
	bw, buf                 string
	rtt                     time.Duration
	sweep, values, perPoint string
	parallelism, pipelining int
	obs                     cliutil.ObsFlags
}

func run(o options) (err error) {
	o.algo = strings.ToLower(o.algo)
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
		ds := proto.NewDirSink(o.out)
		// The journal resumes the destination, so file bytes must be
		// durable before a partial marker is lifted (DESIGN §12.3).
		ds.SyncOnClose = true
		sink = ds
	case o.algo == "sweep":
		sink = discard{} // the sweep measures the wire, not the disk
	default:
		return fmt.Errorf("one of -out or -verify is required")
	}

	ob, err := o.obs.Start()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, ob.Close()) }()

	client := &proto.Client{
		Addr:            o.server,
		VerifyChecksums: o.checksum,
		StallTimeout:    o.stallTimeout,
		Metrics:         ob.Metrics,
		Events:          ob.Events,
		Trace:           ob.Trace,
	}
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
	if len(files) == 0 {
		return fmt.Errorf("%s serves no files", client.Target())
	}
	ds := dataset.Dataset{Files: files}
	log.Printf("dataset: %d files, %v", ds.Count(), ds.TotalSize())

	if o.out != "" {
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return fmt.Errorf("-out: %w", err)
		}
		jr, err := proto.OpenJournal(filepath.Join(o.out, proto.JournalFileName),
			proto.JournalOptions{Metrics: ob.Metrics})
		if err != nil {
			return err
		}
		defer jr.Close()
		client.Journal = jr
	}

	hostModel := monitor.LocalServerModel(runtime.NumCPU(), bandwidth, 0)
	energy, usedRAPL, err := monitor.AutoSource(monitor.Monitor{}, hostModel, monitor.LocalPowerModel)
	if err != nil {
		return fmt.Errorf("setting up energy estimation: %w", err)
	}
	if usedRAPL {
		log.Print("energy: hardware RAPL counters")
	} else {
		log.Print("energy: fine-grained model over procfs utilization")
		if ms, ok := energy.(*monitor.ModelSource); ok && ob.Trace != nil {
			// The model source feeds the tracer at its own sampling
			// cadence, so span joules estimates stay current and the
			// recorded curve is what xfertrace attributes from.
			ms.Events = ob.Events
			ms.Trace = ob.Trace
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
		MaxRetries: o.retries,
		Metrics:    ob.Metrics,
		Events:     ob.Events,
		Trace:      ob.Trace,
		Label:      strings.ToUpper(o.algo),
	}

	ctx := context.Background()
	if o.algo == "sweep" {
		err = runSweep(ctx, o, exec, files)
	} else {
		err = runAlgorithm(ctx, o, exec, ds)
	}
	if err != nil {
		return err
	}
	if o.out != "" {
		if err := retireJournal(client.Journal, o.out, files); err != nil {
			return err
		}
	}
	if v, ok := sink.(*proto.VerifySink); ok {
		if bad := v.Corrupt(); len(bad) > 0 {
			return fmt.Errorf("integrity check failed for %d ranges: %v", len(bad), bad[:min(3, len(bad))])
		}
		fmt.Println("integrity: all payload bytes verified")
	}
	return nil
}

// runAlgorithm moves the dataset with the algorithm -algo names.
func runAlgorithm(ctx context.Context, o options, exec *proto.Executor, ds dataset.Dataset) error {
	if o.out != "" {
		plan, err := planResume(exec, o.out, ds.Files)
		if err != nil {
			return err
		}
		exec.Resume = plan
	}
	start := time.Now()
	var report transfer.Report
	var err error
	switch o.algo {
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
	if o.obs.Trace != "" {
		fmt.Printf("per-span energy attribution: xfertrace %s\n", o.obs.Trace)
	}
	return nil
}

// runSweep varies one protocol parameter over -values and prints a
// throughput row per value. A point moves about -per-point bytes of
// whole files, or with -out whatever the destination still lacks.
func runSweep(ctx context.Context, o options, exec *proto.Executor, files []dataset.File) error {
	values, err := parseValues(o.values)
	if err != nil {
		return err
	}
	perPoint, err := cliutil.ParseSize(o.perPoint)
	if err != nil {
		return err
	}
	c, p, q := o.maxChannels, o.parallelism, o.pipelining
	var varied *int
	switch o.sweep {
	case "concurrency":
		varied = &c
	case "parallelism":
		varied = &p
	case "pipelining":
		varied = &q
	default:
		return fmt.Errorf("unknown sweep parameter %q", o.sweep)
	}
	if c < 1 || p < 1 || q < 1 {
		return fmt.Errorf("sweep parameters must be ≥1 (cc=%d par=%d q=%d)", c, p, q)
	}
	fmt.Printf("sweeping %s over %v (payload ≈%v per point; fixed cc=%d par=%d q=%d)\n\n",
		o.sweep, values, perPoint, c, p, q)
	fmt.Printf("%12s %12s %10s %10s\n", o.sweep, "throughput", "duration", "files")
	for _, v := range values {
		*varied = v
		exec.Label = fmt.Sprintf("%s=%d", o.sweep, v)
		point := files
		if o.out == "" {
			point = pointFiles(files, perPoint)
		} else {
			if exec.Resume, err = planResume(exec, o.out, files); err != nil {
				return err
			}
			if len(exec.Resume.Ranges) == 0 {
				fmt.Printf("%12d %12s\n", v, "complete")
				continue
			}
		}
		r, err := measure(ctx, exec, point, c, p, q)
		if err != nil {
			return fmt.Errorf("%s: %w", exec.Label, err)
		}
		fmt.Printf("%12d %12s %10s %10d\n", v, r.Throughput, r.Duration.Round(time.Millisecond), r.Files)
	}
	return nil
}

// measure runs one sweep point: files as one chunk on conc channels of
// par streams, each keeping pipe GETs outstanding. With exec.Resume
// set, only the recovery plan's ranges of those files are fetched.
func measure(ctx context.Context, exec *proto.Executor, files []dataset.File, conc, par, pipe int) (transfer.Report, error) {
	chunk := dataset.Chunk{Files: files, Parallelism: par, Pipelining: pipe}
	plan := transfer.Plan{Chunks: []transfer.ChunkPlan{{Chunk: chunk, Channels: conc, Weight: 1}}}
	return exec.Run(ctx, plan)
}

// pointFiles picks ≈perPoint bytes of whole files, wrapping around the
// manifest when it is smaller than the point payload (the same name
// refetches under an independent request).
func pointFiles(files []dataset.File, perPoint units.Bytes) []dataset.File {
	var chosen []dataset.File
	var total units.Bytes
	for i := 0; total < perPoint; i++ {
		f := files[i%len(files)]
		chosen = append(chosen, f)
		total += f.Size
	}
	return chosen
}

func parseValues(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad sweep value %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// planResume commits the receipts written so far and plans the fetch
// that completes the -out destination: every byte of a fresh one, only
// the unverified gaps of an interrupted one.
func planResume(exec *proto.Executor, dir string, files []dataset.File) (*proto.RecoveryPlan, error) {
	if err := exec.Client.Journal.Sync(); err != nil {
		return nil, err
	}
	plan, err := proto.PlanResume(dir, files, proto.ResumeOptions{
		JournalPath: exec.Client.Journal.Path(),
		Metrics:     exec.Metrics,
		Events:      exec.Events,
	})
	if err != nil {
		return nil, fmt.Errorf("planning resume: %w", err)
	}
	log.Printf("resume: %v verified via journal, %v already present, %v to fetch in %d ranges",
		plan.Verified, plan.Skipped, plan.Refetch, len(plan.Ranges))
	return plan, nil
}

// retireJournal closes the journal and deletes it once the destination
// proves complete; an incomplete destination keeps it for the next run.
func retireJournal(jr *proto.Journal, dir string, files []dataset.File) error {
	if err := jr.Close(); err != nil {
		return err
	}
	plan, err := proto.PlanResume(dir, files, proto.ResumeOptions{JournalPath: jr.Path()})
	if err != nil || len(plan.Ranges) > 0 {
		return err
	}
	if err := os.Remove(jr.Path()); err != nil {
		return err
	}
	log.Print("destination complete: receipt journal removed")
	return nil
}

// discard drops payload; a sweep without -out or -verify measures the
// wire, not the disk.
type discard struct{}

func (discard) WriteAt(_ string, p []byte, _ int64) (int, error) { return len(p), nil }
func (discard) Close(string) error                               { return nil }
