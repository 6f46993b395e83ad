package cliutil

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/didclab/eta/internal/units"
)

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want units.Bytes
	}{
		{"160GB", 160 * units.GB},
		{"3MB", 3 * units.MB},
		{"512kb", 512 * units.KB},
		{"1.5GB", units.Bytes(1.5 * float64(units.GB))},
		{"42B", 42},
		{"1000", 1000},
		{"2tb", 2 * units.TB},
		{" 10 MB ", 10 * units.MB},
	}
	for _, c := range cases {
		got, err := ParseSize(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseSize(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{"", "abc", "-5MB", "MB", "Inf", "NaN", "-Inf", "infGB", "1e30GB", "9.3e18", "9223372036854775808"} {
		if _, err := ParseSize(bad); err == nil {
			t.Errorf("ParseSize(%q) accepted", bad)
		}
	}
}

func TestParseRate(t *testing.T) {
	cases := []struct {
		in   string
		want units.Rate
	}{
		{"", 0},
		{"10gbps", 10 * units.Gbps},
		{"800Mbps", 800 * units.Mbps},
		{"56kbps", 56 * units.Kbps},
		{"9600bps", 9600},
		{"0.5gbps", units.Rate(0.5 * float64(units.Gbps))},
	}
	for _, c := range cases {
		got, err := ParseRate(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseRate(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{"fast", "-1mbps", "mbps", "NaN", "Infgbps", "+Inf", "-Infmbps", "nanbps", "1e300gbps"} {
		if _, err := ParseRate(bad); err == nil {
			t.Errorf("ParseRate(%q) accepted", bad)
		}
	}
}

func TestObsFlags(t *testing.T) {
	off, err := ObsFlags{}.Start()
	if err != nil {
		t.Fatal(err)
	}
	if off.Metrics != nil || off.Events != nil || off.Trace != nil {
		t.Errorf("every output off still built %+v", off)
	}
	if err := off.Close(); err != nil {
		t.Errorf("closing the empty wiring: %v", err)
	}

	dir := t.TempDir()
	f := ObsFlags{
		Trace:       filepath.Join(dir, "run.jsonl"),
		MetricsAddr: "127.0.0.1:0",
		Pprof:       true,
		Metrics:     filepath.Join(dir, "metrics.json"),
	}
	o, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	o.Metrics.Counter("bytes_received").Add(7)
	o.Trace.Root("transfer").End()
	for _, path := range []string{"/metrics", "/spans", "/debug/pprof/"} {
		resp, err := http.Get("http://" + o.http.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: %s", path, resp.Status)
		}
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(f.Metrics)
	if err != nil || !strings.Contains(string(snap), `"bytes_received": 7`) {
		t.Errorf("metrics file %q (%v) lacks bytes_received", snap, err)
	}
	trace, err := os.ReadFile(f.Trace)
	if err != nil || !strings.Contains(string(trace), `"type":"span_end"`) {
		t.Errorf("trace file %q (%v) lacks the span", trace, err)
	}
}
