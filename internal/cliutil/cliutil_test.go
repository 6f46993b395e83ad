package cliutil

import (
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
	for _, bad := range []string{"fast", "-1mbps", "mbps", "NaN", "Infgbps", "+Inf", "-Infmbps", "nanbps"} {
		if _, err := ParseRate(bad); err == nil {
			t.Errorf("ParseRate(%q) accepted", bad)
		}
	}
}
