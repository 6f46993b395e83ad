package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/netem"
	"github.com/didclab/eta/internal/obs"
	"github.com/didclab/eta/internal/obs/span"
	"github.com/didclab/eta/internal/proto"
	"github.com/didclab/eta/internal/transfer"
	"github.com/didclab/eta/internal/units"
)

// constantPower is a fake cumulative energy source that also records
// the energy_model_sample curve the flight recorder attributes from.
// Like monitor.ModelSource, its first Total primes it at zero and emits
// no sample.
type constantPower struct {
	prime sync.Once
	start time.Time
	watts float64
	log   *obs.Log
}

func (c *constantPower) Total() (units.Joules, error) {
	primed := false
	c.prime.Do(func() { c.start, primed = time.Now(), true })
	if primed {
		return 0, nil
	}
	j := c.watts * time.Since(c.start).Seconds()
	c.log.Emit(obs.EvEnergyModel, "joules_total", j, "watts", c.watts)
	return units.Joules(j), nil
}

// recordTracedRun performs one fully traced loopback transfer and
// returns the path of its recorded JSONL event stream.
func recordTracedRun(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	eventsPath := filepath.Join(dir, "run.jsonl")
	f, err := os.Create(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	events := obs.NewLog(f)
	reg := obs.NewRegistry()
	tracer := span.NewTracer(reg, events)

	ds := dataset.NewGenerator(7).Uniform(8, 256*units.KB)
	srv, err := proto.ListenAndServe("127.0.0.1:0", proto.ServerConfig{
		Store:  proto.NewSynthStore(ds),
		Events: events,
		Trace:  tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	exec := &proto.Executor{
		Client: &proto.Client{Addr: srv.Addr()},
		Sink:   proto.NewVerifySink(),
		Energy: &constantPower{watts: 35, log: events},
		Environment: transfer.Environment{
			Path: netem.Path{
				Bandwidth:       1 * units.Gbps,
				RTT:             10 * time.Millisecond,
				MaxTCPBuffer:    4 * units.MB,
				EffStreamBuffer: 256 * units.KB,
			},
			MaxChannels:    8,
			ServersPerSite: 1,
		},
		Events: events,
		Trace:  tracer,
		Label:  "flight-test",
	}
	chunk := dataset.Chunk{Class: dataset.Large, Files: ds.Files, Parallelism: 2, Pipelining: 3}
	plan := transfer.Plan{Chunks: []transfer.ChunkPlan{{Chunk: chunk, Channels: 2, Weight: 1}}}
	if _, err := exec.Run(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	deadline := time.Now().Add(5 * time.Second)
	for tracer.LiveCount() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d spans still open after teardown", tracer.LiveCount())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := events.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return eventsPath
}

// TestFlightRecorder drives the full xfertrace pipeline over a real
// traced loopback run: the -check gate must pass (balanced forest,
// per-span joules summing to the source total within 1%), the default
// report must include the timeline and critical path, and the Chrome
// export must be loadable JSON with one event per span.
func TestFlightRecorder(t *testing.T) {
	eventsPath := recordTracedRun(t)

	// CI gate: -check.
	var checkOut bytes.Buffer
	if err := run([]string{eventsPath}, true, 0.01, 10, "", &checkOut); err != nil {
		t.Fatalf("xfertrace -check failed: %v\n%s", err, checkOut.String())
	}
	if !strings.HasPrefix(checkOut.String(), "ok:") {
		t.Errorf("-check output = %q, want ok", checkOut.String())
	}

	// Human report plus Chrome export.
	chromePath := filepath.Join(t.TempDir(), "trace.json")
	var report bytes.Buffer
	if err := run([]string{eventsPath}, false, 0.01, 5, chromePath, &report); err != nil {
		t.Fatalf("xfertrace report failed: %v", err)
	}
	out := report.String()
	for _, want := range []string{"timeline:", "critical path", "top 5 spans by attributed energy", "transfer", "server_session"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// The transfer root shows delivered against planned bytes.
	if m := regexp.MustCompile(`transfer \S+ \S+ \S+ (\d+)B of (\d+)B planned`).FindStringSubmatch(out); m == nil || m[1] != m[2] {
		t.Errorf("report lacks a complete transfer's delivered-vs-planned bytes (match %q):\n%s", m, out)
	}

	raw, err := os.ReadFile(chromePath)
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &chrome); err != nil {
		t.Fatalf("chrome export is not JSON: %v", err)
	}
	if chrome.DisplayTimeUnit != "ms" || len(chrome.TraceEvents) == 0 {
		t.Fatalf("degenerate chrome export: %d events, unit %q", len(chrome.TraceEvents), chrome.DisplayTimeUnit)
	}
	f, err := os.Open(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	forest, err := span.ReadForest(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(chrome.TraceEvents) != forest.SpanCount() {
		t.Errorf("chrome export has %d events, forest has %d spans", len(chrome.TraceEvents), forest.SpanCount())
	}
	for _, ev := range chrome.TraceEvents {
		if ev.Ph != "X" || ev.TS < 0 || ev.Name == "" {
			t.Fatalf("bad chrome event %+v", ev)
		}
	}
}

// TestCheckRejectsUnbalanced feeds -check a stream whose span never
// ends, and one whose span is its own parent, and expects each to
// fail.
func TestCheckRejectsUnbalanced(t *testing.T) {
	const begin = `{"seq":1,"t":"2026-08-06T10:00:00Z","type":"span_begin","trace":"t1","span":1,"parent":%d,"name":"transfer"}` + "\n"
	const end = `{"seq":2,"t":"2026-08-06T10:00:01Z","type":"span_end","trace":"t1","span":1,"parent":1,"name":"transfer","dur_ms":1000}` + "\n"
	for _, c := range []struct {
		name, stream, wantOut string
	}{
		{"leaked", fmt.Sprintf(begin, 0), "leaked"},
		// ReadForest refuses the stream, so nothing is printed.
		{"self-parent", fmt.Sprintf(begin, 1) + end, ""},
	} {
		path := filepath.Join(t.TempDir(), "bad.jsonl")
		if err := os.WriteFile(path, []byte(c.stream), 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := run([]string{path}, true, 0.01, 10, "", &out); err == nil {
			t.Errorf("%s: -check accepted the stream:\n%s", c.name, out.String())
			continue
		}
		if !strings.Contains(out.String(), c.wantOut) {
			t.Errorf("%s: failure output %q does not mention %q", c.name, out.String(), c.wantOut)
		}
	}
}
