package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
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

// sweepOptions is a one-point concurrency sweep that discards payload.
func sweepOptions(addr string) options {
	o := baseOptions(addr)
	o.algo = "sweep"
	o.verify, o.checksum = false, false
	o.sweep, o.values, o.perPoint = "concurrency", "1", "400KB"
	o.parallelism, o.pipelining = 1, 2
	return o
}

// readCounters parses the counters of a -metrics snapshot.
func readCounters(t *testing.T, path string) map[string]int64 {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics snapshot does not parse: %v", err)
	}
	return snap.Counters
}

// assertDelivered checks every file under dir byte for byte against the
// synthetic source, and that the receipt journal is gone.
func assertDelivered(t *testing.T, dir string, ds dataset.Dataset) {
	t.Helper()
	for _, f := range ds.Files {
		got, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(f.Name)))
		if err != nil {
			t.Fatalf("%s not delivered: %v", f.Name, err)
		}
		want := make([]byte, f.Size)
		proto.FillSynth(f.Name, 0, want)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: delivered bytes differ from source", f.Name)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, proto.JournalFileName)); !os.IsNotExist(err) {
		t.Errorf("journal not retired after complete delivery (stat err: %v)", err)
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
	o.obs.Trace = tracePath
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
	assertDelivered(t, dst, ds)
	// A second run into the complete destination moves nothing.
	o.obs.Trace = ""
	o.obs.Metrics = filepath.Join(t.TempDir(), "metrics.json")
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	if got := readCounters(t, o.obs.Metrics)["bytes_received"]; got != 0 {
		t.Errorf("re-run into a complete destination received %d bytes", got)
	}
	assertDelivered(t, dst, ds)
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

func TestParseValues(t *testing.T) {
	got, err := parseValues("1, 2,4")
	if err != nil || len(got) != 3 || got[0] != 1 || got[2] != 4 {
		t.Errorf("parseValues = %v, %v", got, err)
	}
	for _, bad := range []string{"", "a", "0", "-1", "1,,2"} {
		if _, err := parseValues(bad); err == nil {
			t.Errorf("parseValues(%q) accepted", bad)
		}
	}
}

func TestMeasureAgainstServer(t *testing.T) {
	ds := dataset.NewGenerator(1).Uniform(10, 300*units.KB)
	srv, err := proto.ListenAndServe("127.0.0.1:0", proto.ServerConfig{Store: proto.NewSynthStore(ds)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := &proto.Client{Addr: srv.Addr()}
	files, err := client.List()
	if err != nil {
		t.Fatal(err)
	}
	exec := &proto.Executor{Client: client, Sink: discard{}}
	r, err := measure(context.Background(), exec, pointFiles(files, 1*units.MB), 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Throughput <= 0 || r.Duration <= 0 || r.Files < 4 || r.Bytes < 1*units.MB {
		t.Errorf("measure = %v, %v, %d files, %v", r.Throughput, r.Duration, r.Files, r.Bytes)
	}
}

func TestRunSweepTable(t *testing.T) {
	srv, _ := startServer(t)
	for _, param := range []string{"concurrency", "parallelism", "pipelining"} {
		o := sweepOptions(srv.Addr())
		o.sweep, o.values = param, "1,2"
		if err := run(o); err != nil {
			t.Errorf("sweep %s: %v", param, err)
		}
	}
	o := sweepOptions(srv.Addr())
	o.verify = true
	if err := run(o); err != nil {
		t.Errorf("verified sweep: %v", err)
	}
	o = sweepOptions(srv.Addr())
	o.sweep = "bogus"
	if err := run(o); err == nil {
		t.Error("unknown sweep parameter accepted")
	}
	o = sweepOptions(srv.Addr())
	o.values = "1,16"
	if err := run(o); err == nil {
		t.Error("concurrency above -max-channels accepted")
	}
	if err := run(sweepOptions("127.0.0.1:1")); err == nil {
		t.Error("dead server accepted")
	}
	empty, err := proto.ListenAndServe("127.0.0.1:0", proto.ServerConfig{Store: proto.NewSynthStore(dataset.Dataset{})})
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	if err := run(sweepOptions(empty.Addr())); err == nil {
		t.Error("server with no files accepted")
	}
}

func TestRunMultiEndpoint(t *testing.T) {
	srvA, _ := startServer(t)
	srvB, _ := startServer(t)
	o := sweepOptions("ignored:0")
	o.addrs = srvA.Addr() + "=2," + srvB.Addr()
	o.values = "2"
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	o = baseOptions("ignored:0")
	o.addrs = srvA.Addr() + "," + srvB.Addr()
	o.algo = "go"
	if err := run(o); err != nil {
		t.Fatalf("-algo go over two endpoints: %v", err)
	}
	for _, bad := range []string{"not-an-endpoint-list=", "a:1=4611686018427387904,b:1=4611686018427387904"} {
		o.addrs = bad
		if err := run(o); err == nil {
			t.Errorf("malformed -addrs %q accepted", bad)
		}
	}
}

func TestRunJournalModeDeliversAndRetires(t *testing.T) {
	// A sweep into -out is a real delivery: the first point completes
	// the destination, the next finds nothing left, the journal is
	// retired, and a re-run fetches nothing.
	srv, ds := startServer(t)
	dst := t.TempDir()
	o := sweepOptions(srv.Addr())
	o.out = dst
	o.values = "1,2"
	o.obs.Metrics = filepath.Join(t.TempDir(), "metrics.json")
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	if got := readCounters(t, o.obs.Metrics)["transfers_finished"]; got != 1 {
		t.Errorf("transfers_finished = %d, want 1 (the second point finds the destination complete)", got)
	}
	assertDelivered(t, dst, ds)
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	if got := readCounters(t, o.obs.Metrics)["bytes_received"]; got != 0 {
		t.Errorf("re-run into a complete destination received %d bytes", got)
	}
	assertDelivered(t, dst, ds)
}

func TestRunDumpsMetricsAndEvents(t *testing.T) {
	srv, _ := startServer(t)
	dir := t.TempDir()
	o := sweepOptions(srv.Addr())
	o.values = "1,2"
	o.stallTimeout = 2 * time.Second
	o.obs.Metrics = filepath.Join(dir, "metrics.json")
	o.obs.Trace = filepath.Join(dir, "events.jsonl")
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	counters := readCounters(t, o.obs.Metrics)
	if counters["bytes_received"] <= 0 {
		t.Errorf("bytes_received = %d, want > 0", counters["bytes_received"])
	}
	if counters["transfers_finished"] != 2 {
		t.Errorf("transfers_finished = %d, want 2 (one per sweep point)", counters["transfers_finished"])
	}

	f, err := os.Open(o.obs.Trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines, transfers := 0, 0
	for sc := bufio.NewScanner(f); sc.Scan(); lines++ {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("event line %d does not parse: %v", lines, err)
		}
		for _, key := range []string{"seq", "t", "type"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event line %d missing %q: %s", lines, key, sc.Text())
			}
		}
		if ev["type"] == "span_end" && ev["name"] == "transfer" {
			transfers++
		}
	}
	if lines == 0 {
		t.Error("event log is empty")
	}
	if transfers != 2 {
		t.Errorf("%d transfer spans in the trace, want 2 (one per sweep point)", transfers)
	}
}
