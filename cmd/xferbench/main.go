// Command xferbench sweeps the three protocol parameters against a
// live server and prints a throughput table — the measurement
// methodology behind the paper's tuning decisions, runnable on any pair
// of hosts (or loopback with xferd's shaping). Each sweep point runs as
// a one-chunk plan through proto.Executor, the same driver the
// algorithms steer.
//
// Usage:
//
//	xferbench -server host:7632 -sweep concurrency -values 1,2,4,8
//	xferbench -server host:7632 -sweep parallelism -values 1,2,4 -per-point 30MB
//	xferbench -addrs hostA:7632=2,hostB:7632 -sweep concurrency -values 2,4,8
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/didclab/eta/internal/cliutil"
	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/obs"
	"github.com/didclab/eta/internal/obs/span"
	"github.com/didclab/eta/internal/proto"
	"github.com/didclab/eta/internal/transfer"
	"github.com/didclab/eta/internal/units"
)

func main() {
	server := flag.String("server", "127.0.0.1:7632", "xferd address")
	addrs := flag.String("addrs", "", "weighted xferd replica list (addr, addr=weight or host:port:weight, comma-separated); overrides -server")
	sweep := flag.String("sweep", "concurrency", "parameter to sweep: concurrency|parallelism|pipelining")
	valuesStr := flag.String("values", "1,2,4,8", "comma-separated parameter values")
	perPoint := flag.String("per-point", "64MB", "payload per sweep point")
	concurrency := flag.Int("concurrency", 1, "fixed concurrency when sweeping another parameter")
	parallelism := flag.Int("parallelism", 1, "fixed parallelism when sweeping another parameter")
	pipelining := flag.Int("pipelining", 2, "fixed pipelining when sweeping another parameter")
	metricsOut := flag.String("metrics", "", "write a JSON metrics snapshot to this file on exit")
	stallTimeout := flag.Duration("stall-timeout", 0, "fail a channel whose pending requests see no bytes for this long (0 disables the watchdog)")
	block := flag.Int("block", proto.DefaultBlockSize, "expected server block size in bytes (sizes stream read buffers)")
	dest := flag.String("dest", "", "write received files into this directory (DirSink) instead of discarding payload")
	journal := flag.Bool("journal", false, "with -dest: keep a crash-safe block-receipt journal in the destination and resume via verified recovery — each point fetches only what is still missing")
	fsyncInterval := flag.Duration("fsync-interval", 0, "journal group-commit fsync interval (0 = 25ms default, negative = fsync every append)")
	traceOut := flag.String("trace", "", "record the JSONL event stream with client-side spans to this file (replay with xfertrace)")
	pprofAddr := flag.String("pprof", "", "serve /metrics, /events, /spans and /debug/pprof/ on this address while the sweep runs")
	flag.Parse()

	if err := run(*server, *addrs, *sweep, *valuesStr, *perPoint, *concurrency, *parallelism, *pipelining, *metricsOut, *traceOut, *pprofAddr, *stallTimeout, *block, *dest, *journal, *fsyncInterval); err != nil {
		fmt.Fprintln(os.Stderr, "xferbench:", err)
		os.Exit(1)
	}
}

func run(server, addrs, sweep, valuesStr, perPointStr string, conc, par, pipe int, metricsOut, traceOut, pprofAddr string, stallTimeout time.Duration, block int, dest string, journal bool, fsyncInterval time.Duration) error {
	values, err := parseValues(valuesStr)
	if err != nil {
		return err
	}
	perPoint, err := cliutil.ParseSize(perPointStr)
	if err != nil {
		return err
	}

	client := &proto.Client{Addr: server, StallTimeout: stallTimeout, BlockSize: block}
	if addrs != "" {
		eps, err := proto.ParseEndpoints(addrs)
		if err != nil {
			return fmt.Errorf("-addrs: %w", err)
		}
		pool, err := proto.NewEndpointPool(eps...)
		if err != nil {
			return fmt.Errorf("-addrs: %w", err)
		}
		client.Endpoints = pool
	}
	if metricsOut != "" || traceOut != "" || pprofAddr != "" {
		reg := obs.NewRegistry()
		events := obs.NewLog(nil)
		if traceOut != "" {
			f, err := os.Create(traceOut)
			if err != nil {
				return fmt.Errorf("-trace: %w", err)
			}
			// The buffered log owns f: its deferred Close flushes the
			// tail of the event stream before closing the file.
			events = obs.NewBufferedLog(f, 0)
			defer events.Close()
		}
		client.Metrics = reg
		client.Events = events
		var tracer *span.Tracer
		if traceOut != "" || pprofAddr != "" {
			tracer = span.NewTracer(reg, events)
			client.Trace = tracer
		}
		if pprofAddr != "" {
			ms, err := obs.ServeOpts(pprofAddr, obs.HandlerOpts{
				Registry: reg,
				Log:      events,
				Spans:    tracer,
				Pprof:    true,
			})
			if err != nil {
				return fmt.Errorf("-pprof: %w", err)
			}
			defer ms.Close()
			fmt.Printf("observability on http://%s/metrics, /spans and /debug/pprof/\n", ms.Addr())
		}
		if metricsOut != "" {
			defer func() {
				f, err := os.Create(metricsOut)
				if err != nil {
					fmt.Fprintln(os.Stderr, "xferbench: -metrics:", err)
					return
				}
				defer f.Close()
				if err := reg.WriteJSON(f); err != nil {
					fmt.Fprintln(os.Stderr, "xferbench: -metrics:", err)
				}
			}()
		}
	}
	if journal && dest == "" {
		return fmt.Errorf("-journal requires -dest")
	}
	var sink proto.Sink = discard{}
	if dest != "" {
		ds := proto.NewDirSink(dest)
		// With a journal the marker/fsync discipline matters; without
		// one the destination is best-effort anyway.
		ds.SyncOnClose = journal
		sink = ds
	}
	var jr *proto.Journal
	if journal {
		var err error
		jr, err = proto.OpenJournal(filepath.Join(dest, proto.JournalFileName), proto.JournalOptions{
			FsyncInterval: fsyncInterval,
			Metrics:       client.Metrics,
			Events:        client.Events,
		})
		if err != nil {
			return err
		}
		defer jr.Close()
		client.Journal = jr
	}

	files, err := client.List()
	if err != nil {
		return fmt.Errorf("listing %s: %w", client.Target(), err)
	}
	if len(files) == 0 {
		return fmt.Errorf("server has no files")
	}

	exec := &proto.Executor{
		Client:  client,
		Sink:    sink,
		Metrics: client.Metrics,
		Events:  client.Events,
		Trace:   client.Trace,
	}
	fmt.Printf("sweeping %s over %v (payload ≈%v per point; fixed cc=%d par=%d q=%d)\n\n",
		sweep, values, perPoint, conc, par, pipe)
	fmt.Printf("%12s %12s %10s %10s\n", sweep, "throughput", "duration", "files")
	for _, v := range values {
		c, p, q := conc, par, pipe
		switch sweep {
		case "concurrency":
			c = v
		case "parallelism":
			p = v
		case "pipelining":
			q = v
		default:
			return fmt.Errorf("unknown sweep parameter %q", sweep)
		}
		if c < 1 || p < 1 || q < 1 {
			return fmt.Errorf("parameters must be ≥1")
		}
		exec.Label = fmt.Sprintf("%s=%d", sweep, v)
		point := files
		if jr == nil {
			point = pointFiles(files, perPoint)
		} else {
			// Journal mode fetches the verified-recovery plan — whatever
			// the destination is still missing — instead of a synthetic
			// per-point payload, so an interrupted run picks up where the
			// receipts end.
			if err := jr.Sync(); err != nil {
				return err
			}
			plan, err := proto.PlanResume(dest, files, proto.ResumeOptions{
				JournalPath: jr.Path(),
				Metrics:     client.Metrics,
				Events:      client.Events,
			})
			if err != nil {
				return err
			}
			fmt.Printf("resume: %v verified via journal, %v already present, %v to fetch in %d ranges\n",
				plan.Verified, plan.Skipped, plan.Refetch, len(plan.Ranges))
			if len(plan.Ranges) == 0 {
				fmt.Printf("%12d %12s %10s %10d\n", v, "complete", "-", 0)
				continue
			}
			exec.Resume = plan
		}
		r, err := measure(exec, point, c, p, q)
		if err != nil {
			return fmt.Errorf("%s: %w", exec.Label, err)
		}
		fmt.Printf("%12d %12s %10s %10d\n", v, r.Throughput, r.Duration.Round(time.Millisecond), r.Files)
	}
	if jr != nil {
		// A destination proven complete no longer needs its journal.
		if err := jr.Sync(); err != nil {
			return err
		}
		plan, err := proto.PlanResume(dest, files, proto.ResumeOptions{JournalPath: jr.Path()})
		if err == nil && len(plan.Ranges) == 0 {
			jr.Close()
			if err := os.Remove(jr.Path()); err == nil {
				fmt.Println("destination complete: receipt journal removed")
			}
		}
	}
	return nil
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
	if len(out) == 0 {
		return nil, fmt.Errorf("no sweep values")
	}
	return out, nil
}

// measure runs one sweep point through the executor: files as one
// chunk on conc channels of par streams, each keeping pipe GETs
// outstanding. With exec.Resume set, only the recovery plan's ranges of
// those files are fetched.
func measure(exec *proto.Executor, files []dataset.File, conc, par, pipe int) (transfer.Report, error) {
	chunk := dataset.Chunk{Files: files, Parallelism: par, Pipelining: pipe}
	plan := transfer.Plan{Chunks: []transfer.ChunkPlan{{Chunk: chunk, Channels: conc, Weight: 1}}}
	return exec.Run(context.Background(), plan)
}

// discard drops payload; xferbench measures the wire, not the disk.
type discard struct{}

func (discard) WriteAt(_ string, p []byte, _ int64) (int, error) { return len(p), nil }
func (discard) Close(string) error                               { return nil }
