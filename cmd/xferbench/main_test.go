package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/proto"
	"github.com/didclab/eta/internal/units"
)

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
	r, err := measure(exec, pointFiles(files, 1*units.MB), 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Throughput <= 0 || r.Duration <= 0 || r.Files < 4 || r.Bytes < 1*units.MB {
		t.Errorf("measure = %v, %v, %d files, %v", r.Throughput, r.Duration, r.Files, r.Bytes)
	}
}

func TestRunSweepTable(t *testing.T) {
	ds := dataset.NewGenerator(2).Uniform(6, 200*units.KB)
	srv, err := proto.ListenAndServe("127.0.0.1:0", proto.ServerConfig{Store: proto.NewSynthStore(ds)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := run(srv.Addr(), "", "concurrency", "1,2", "400KB", 1, 1, 2, "", "", "", 0, 0, "", false, 0); err != nil {
		t.Fatal(err)
	}
	if err := run(srv.Addr(), "", "bogus", "1", "400KB", 1, 1, 2, "", "", "", 0, 0, "", false, 0); err == nil {
		t.Error("unknown sweep parameter accepted")
	}
	if err := run("127.0.0.1:1", "", "concurrency", "1", "400KB", 1, 1, 2, "", "", "", 0, 0, "", false, 0); err == nil {
		t.Error("dead server accepted")
	}
	if err := run(srv.Addr(), "", "concurrency", "1", "400KB", 1, 1, 2, "", "", "", 0, 0, "", true, 0); err == nil {
		t.Error("-journal without -dest accepted")
	}
}

func TestRunMultiEndpoint(t *testing.T) {
	ds := dataset.NewGenerator(4).Uniform(6, 200*units.KB)
	srvA, err := proto.ListenAndServe("127.0.0.1:0", proto.ServerConfig{Store: proto.NewSynthStore(ds)})
	if err != nil {
		t.Fatal(err)
	}
	defer srvA.Close()
	srvB, err := proto.ListenAndServe("127.0.0.1:0", proto.ServerConfig{Store: proto.NewSynthStore(ds)})
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()
	addrs := srvA.Addr() + "=2," + srvB.Addr()
	if err := run("ignored:0", addrs, "concurrency", "2", "400KB", 1, 1, 2, "", "", "", 0, 0, "", false, 0); err != nil {
		t.Fatal(err)
	}
	if err := run("ignored:0", "not-an-endpoint-list=", "concurrency", "1", "400KB", 1, 1, 2, "", "", "", 0, 0, "", false, 0); err == nil {
		t.Error("malformed -addrs accepted")
	}
}

func TestRunJournalModeDeliversAndRetires(t *testing.T) {
	// Journal mode turns the sweep into a real delivery: a full run
	// leaves a byte-complete destination and retires the journal; a
	// rerun over the complete destination fetches nothing.
	ds := dataset.NewGenerator(5).Uniform(5, 200*units.KB)
	srv, err := proto.ListenAndServe("127.0.0.1:0", proto.ServerConfig{Store: proto.NewSynthStore(ds)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dest := t.TempDir()
	for i := 0; i < 2; i++ {
		if err := run(srv.Addr(), "", "concurrency", "1", "2MB", 1, 1, 2, "", "", "", 0, 0, dest, true, -1); err != nil {
			t.Fatalf("journal run %d: %v", i, err)
		}
	}
	for _, f := range ds.Files {
		got, err := os.ReadFile(filepath.Join(dest, filepath.FromSlash(f.Name)))
		if err != nil {
			t.Fatalf("%s not delivered: %v", f.Name, err)
		}
		want := make([]byte, f.Size)
		proto.FillSynth(f.Name, 0, want)
		if string(got) != string(want) {
			t.Errorf("%s: delivered bytes differ from source", f.Name)
		}
	}
	if _, err := os.Stat(filepath.Join(dest, proto.JournalFileName)); !os.IsNotExist(err) {
		t.Errorf("journal not retired after complete delivery (stat err: %v)", err)
	}
}

func TestRunDumpsMetricsAndEvents(t *testing.T) {
	ds := dataset.NewGenerator(3).Uniform(4, 200*units.KB)
	srv, err := proto.ListenAndServe("127.0.0.1:0", proto.ServerConfig{Store: proto.NewSynthStore(ds)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.json")
	events := filepath.Join(dir, "events.jsonl")
	if err := run(srv.Addr(), "", "concurrency", "1", "300KB", 1, 1, 2, metrics, events, "", 2*time.Second, proto.DefaultBlockSize, "", false, 0); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics snapshot does not parse: %v", err)
	}
	if snap.Counters["bytes_received"] <= 0 {
		t.Errorf("bytes_received = %d, want > 0", snap.Counters["bytes_received"])
	}
	if snap.Counters["transfers_finished"] <= 0 {
		t.Errorf("transfers_finished = %d, want > 0", snap.Counters["transfers_finished"])
	}

	f, err := os.Open(events)
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
	if transfers != 1 {
		t.Errorf("%d transfer spans in the trace, want 1 (one sweep point)", transfers)
	}
}
