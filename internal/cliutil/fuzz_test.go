package cliutil

import (
	"math"
	"testing"
)

func FuzzParseSize(f *testing.F) {
	f.Add("160GB")
	f.Add("3mb")
	f.Add("-1KB")
	f.Add("")
	f.Add("1.5TB")
	f.Add("Inf")
	f.Add("NaN")
	f.Add("1e30GB")
	f.Add("9.3e18")
	f.Fuzz(func(t *testing.T, input string) {
		v, err := ParseSize(input)
		if err != nil {
			return
		}
		if v < 0 {
			t.Fatalf("ParseSize(%q) accepted a negative size %d", input, v)
		}
	})
}

func FuzzParseRate(f *testing.F) {
	f.Add("10gbps")
	f.Add("800Mbps")
	f.Add("bogus")
	f.Add("")
	f.Add("NaN")
	f.Add("Infgbps")
	f.Add("1e300gbps")
	f.Fuzz(func(t *testing.T, input string) {
		v, err := ParseRate(input)
		if err != nil {
			return
		}
		if !(v >= 0) || math.IsInf(float64(v), 1) {
			t.Fatalf("ParseRate(%q) accepted a negative or non-finite rate %v", input, v)
		}
	})
}
