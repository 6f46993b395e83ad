package cliutil

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"

	"github.com/didclab/eta/internal/obs"
	"github.com/didclab/eta/internal/obs/span"
)

// ObsFlags selects a command's observability outputs. Register adds
// the three the transfer commands share; Metrics is set by the
// commands that also dump a metrics file.
type ObsFlags struct {
	Trace       string // JSONL event stream file, spans included
	MetricsAddr string // address serving /metrics, /events and /spans
	Pprof       bool   // also serve /debug/pprof/ on MetricsAddr
	Metrics     string // file Close writes the JSON metrics snapshot to
}

// Register adds -trace, -metrics-addr and -pprof to fs.
func (f *ObsFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Trace, "trace", "", "record the JSONL event stream with spans to this file (replay with xfertrace)")
	fs.StringVar(&f.MetricsAddr, "metrics-addr", "", "serve /metrics, /events and /spans on this address (e.g. :7633)")
	fs.BoolVar(&f.Pprof, "pprof", false, "with -metrics-addr: also serve net/http/pprof under /debug/pprof/")
}

// Obs is what ObsFlags.Start built. Its fields are nil when every
// output is off, which every instrumented layer treats as a no-op.
type Obs struct {
	Metrics *obs.Registry
	Events  *obs.Log
	Trace   *span.Tracer

	http        *obs.HTTPServer
	metricsFile string
}

// Start builds the registry, event log and tracer the selected outputs
// need and starts the HTTP endpoint. Close the result when done.
func (f ObsFlags) Start() (*Obs, error) {
	o := &Obs{metricsFile: f.Metrics}
	traced := f.Trace != "" || f.MetricsAddr != ""
	if !traced && f.Metrics == "" {
		return o, nil
	}
	o.Metrics = obs.NewRegistry()
	o.Events = obs.NewLog(nil)
	if f.Trace != "" {
		file, err := os.Create(f.Trace)
		if err != nil {
			return nil, fmt.Errorf("-trace: %w", err)
		}
		// The buffered log owns file: Close flushes the tail of the
		// stream before closing it.
		o.Events = obs.NewBufferedLog(file, 0)
	}
	if traced {
		o.Trace = span.NewTracer(o.Metrics, o.Events)
	}
	if f.MetricsAddr != "" {
		srv, err := obs.Serve(f.MetricsAddr, obs.HandlerOpts{
			Registry: o.Metrics,
			Log:      o.Events,
			Spans:    o.Trace,
			Pprof:    f.Pprof,
		})
		if err != nil {
			o.Events.Close()
			return nil, fmt.Errorf("-metrics-addr: %w", err)
		}
		o.http = srv
		log.Printf("observability on http://%s/metrics, /events and /spans", srv.Addr())
	}
	return o, nil
}

// Close stops the HTTP endpoint, writes the metrics file, and flushes
// and closes the event log.
func (o *Obs) Close() error {
	var errs []error
	if o.http != nil {
		errs = append(errs, o.http.Close())
	}
	if o.metricsFile != "" {
		var snap bytes.Buffer
		err := o.Metrics.WriteJSON(&snap)
		if err == nil {
			err = os.WriteFile(o.metricsFile, snap.Bytes(), 0o644)
		}
		errs = append(errs, err)
	}
	return errors.Join(append(errs, o.Events.Close())...)
}
