// Command xferd is the transfer server daemon: it serves either a real
// directory tree or a deterministic synthetic dataset over the
// GridFTP-like protocol, optionally shaping traffic to emulate WAN
// conditions (per-stream window cap, link capacity, control RTT).
//
// Usage:
//
//	xferd -addr :7632 -root /data
//	xferd -addr :7632 -synth 10GB -stream-rate 800mbps -rtt 40ms
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/didclab/eta/internal/cliutil"
	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/proto"
)

func main() {
	addr := flag.String("addr", ":7632", "listen address")
	root := flag.String("root", "", "serve files from this directory")
	synth := flag.String("synth", "", "serve a synthetic dataset of this total size (e.g. 10GB)")
	synthMin := flag.String("synth-min", "3MB", "synthetic minimum file size")
	synthMax := flag.String("synth-max", "1GB", "synthetic maximum file size")
	seed := flag.Int64("seed", 1, "synthetic dataset seed")
	streamRate := flag.String("stream-rate", "", "per-stream rate cap (e.g. 800mbps)")
	linkRate := flag.String("link-rate", "", "aggregate link rate cap (e.g. 10gbps)")
	rtt := flag.Duration("rtt", 0, "emulated control-channel RTT")
	block := flag.Int("block", proto.DefaultBlockSize, "striping block size in bytes")
	stallTimeout := flag.Duration("stall-timeout", 0, "tear down sessions whose control/data writes stall this long (0 disables)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "on the first SIGINT/SIGTERM, stop accepting sessions and wait up to this long for in-flight transfers before closing")
	var obsFlags cliutil.ObsFlags
	obsFlags.Register(flag.CommandLine)
	flag.Parse()

	o, err := obsFlags.Start()
	if err != nil {
		log.Fatalf("xferd: %v", err)
	}
	defer o.Close()
	cfg := proto.ServerConfig{
		ControlRTT:   *rtt,
		BlockSize:    *block,
		StallTimeout: *stallTimeout,
		Logf:         log.Printf,
		Metrics:      o.Metrics,
		Events:       o.Events,
		Trace:        o.Trace,
	}
	if cfg.PerStreamRate, err = cliutil.ParseRate(*streamRate); err != nil {
		log.Fatalf("xferd: -stream-rate: %v", err)
	}
	if cfg.LinkRate, err = cliutil.ParseRate(*linkRate); err != nil {
		log.Fatalf("xferd: -link-rate: %v", err)
	}

	switch {
	case *root != "" && *synth != "":
		log.Fatal("xferd: -root and -synth are mutually exclusive")
	case *root != "":
		cfg.Store = proto.DirStore{Root: *root}
	case *synth != "":
		total, err := cliutil.ParseSize(*synth)
		if err != nil {
			log.Fatalf("xferd: -synth: %v", err)
		}
		min, err := cliutil.ParseSize(*synthMin)
		if err != nil {
			log.Fatalf("xferd: -synth-min: %v", err)
		}
		max, err := cliutil.ParseSize(*synthMax)
		if err != nil {
			log.Fatalf("xferd: -synth-max: %v", err)
		}
		ds := dataset.NewGenerator(*seed).Mixed(total, min, max)
		log.Printf("xferd: serving synthetic dataset: %d files, %v total", ds.Count(), ds.TotalSize())
		cfg.Store = proto.NewSynthStore(ds)
	default:
		log.Fatal("xferd: one of -root or -synth is required")
	}

	// Graceful drain: the first signal refuses new sessions and lets the
	// in-flight ones finish under -drain-timeout; a second signal at ANY
	// point — including while Drain/Close is still running — force-exits
	// immediately instead of being swallowed by a blocked shutdown. The
	// handler is installed before the listen address is announced, so a
	// signal sent as soon as the address is known never takes the
	// default kill path.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	srv, err := proto.ListenAndServe(*addr, cfg)
	if err != nil {
		log.Fatalf("xferd: %v", err)
	}
	log.Printf("xferd: listening on %s", srv.Addr())

	first := <-sig
	log.Printf("xferd: %v: draining (waiting up to %v for in-flight sessions; signal again to force exit)", first, *drainTimeout)
	drained := make(chan error, 1)
	//lint:allow nakedgo single signal-lifetime shutdown goroutine in main; it must keep running while main selects on a second signal, which a bounded pool cannot express
	go func() { drained <- srv.Drain(*drainTimeout) }()
	select {
	case err := <-drained:
		if err != nil {
			log.Printf("xferd: close: %v", err)
		}
		log.Print("xferd: drained, shutting down")
	case second := <-sig:
		log.Printf("xferd: second signal (%v) during drain: forcing exit", second)
		os.Exit(1)
	}
}
