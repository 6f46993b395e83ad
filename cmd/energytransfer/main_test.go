package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/proto"
	"github.com/didclab/eta/internal/units"
)

func startServer(t *testing.T) (*proto.Server, dataset.Dataset) {
	t.Helper()
	ds := dataset.NewGenerator(9).ManySmall(12, 50*units.KB, 300*units.KB)
	srv, err := proto.ListenAndServe("127.0.0.1:0", proto.ServerConfig{Store: proto.NewSynthStore(ds)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, ds
}

func baseOptions(addr string) options {
	return options{
		server:      addr,
		algo:        "promc",
		maxChannels: 3,
		sla:         0.9,
		bw:          "1gbps",
		buf:         "4MB",
		rtt:         5 * time.Millisecond,
		verify:      true,
		checksum:    true,
	}
}

func TestRunVerifyTransfer(t *testing.T) {
	srv, _ := startServer(t)
	for _, algo := range []string{"promc", "sc", "guc", "go", "mine", "htee"} {
		o := baseOptions(srv.Addr())
		o.algo = algo
		if err := run(o); err != nil {
			t.Errorf("%s: %v", algo, err)
		}
	}
}

func TestRunSLAEE(t *testing.T) {
	srv, _ := startServer(t)
	o := baseOptions(srv.Addr())
	o.algo = "slaee"
	if err := run(o); err == nil {
		t.Error("slaee without -max-mbps accepted")
	}
	o.maxMbps = 200
	o.sla = 0.5
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunToDirectoryWithResumeAndTrace(t *testing.T) {
	srv, ds := startServer(t)
	dst := t.TempDir()
	tracePath := filepath.Join(t.TempDir(), "run.jsonl")
	o := baseOptions(srv.Addr())
	o.algo = "htee" // samples windows through Advance
	o.verify = false
	o.checksum = false
	o.out = dst
	o.traceOut = tracePath
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	// The trace is the sample timeline: one energy_sample event per
	// Advance window.
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"type":"energy_sample"`) {
		t.Error("trace holds no energy_sample windows")
	}
	// Every file must be on disk at full size.
	for _, f := range ds.Files {
		info, err := os.Stat(filepath.Join(dst, filepath.FromSlash(f.Name)))
		if err != nil || units.Bytes(info.Size()) != f.Size {
			t.Fatalf("file %s wrong on disk: %v", f.Name, err)
		}
	}
	// Resumed run moves nothing.
	o.resume = true
	o.traceOut = ""
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunOptionValidation(t *testing.T) {
	srv, _ := startServer(t)
	o := baseOptions(srv.Addr())
	o.verify = false
	if err := run(o); err == nil {
		t.Error("no sink accepted")
	}
	o = baseOptions(srv.Addr())
	o.out = t.TempDir()
	if err := run(o); err == nil {
		t.Error("-out together with -verify accepted")
	}
	o = baseOptions(srv.Addr())
	o.verify = false
	o.resume = true
	if err := run(o); err == nil {
		t.Error("-resume without -out accepted")
	}
	o = baseOptions(srv.Addr())
	o.algo = "warp"
	if err := run(o); err == nil {
		t.Error("unknown algorithm accepted")
	}
	o = baseOptions(srv.Addr())
	o.bw = "junk"
	if err := run(o); err == nil {
		t.Error("bad bandwidth accepted")
	}
}
