// Package cliutil holds what the command-line tools share: parsing of
// human-friendly byte sizes ("160GB") and data rates ("800mbps"), and
// the observability flags and wiring of the transfer commands.
package cliutil

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/didclab/eta/internal/units"
)

// ParseSize reads "64MB"-style byte sizes (decimal units).
func ParseSize(s string) (units.Bytes, error) {
	if strings.TrimSpace(s) == "" {
		return 0, fmt.Errorf("cliutil: empty size")
	}
	u := strings.ToUpper(strings.TrimSpace(s))
	mult := units.Bytes(1)
	for _, suffix := range []struct {
		tag string
		m   units.Bytes
	}{{"TB", units.TB}, {"GB", units.GB}, {"MB", units.MB}, {"KB", units.KB}, {"B", 1}} {
		if strings.HasSuffix(u, suffix.tag) {
			mult = suffix.m
			u = strings.TrimSuffix(u, suffix.tag)
			break
		}
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(u), 64)
	n := v * float64(mult)
	// !(v >= 0) also rejects NaN; 2^63 and above (Inf included) would
	// overflow the int64 conversion.
	if err != nil || !(v >= 0) || n >= math.MaxInt64 {
		return 0, fmt.Errorf("cliutil: bad size %q", s)
	}
	return units.Bytes(n), nil
}

// ParseRate reads "800mbps"-style data rates; the empty string parses
// to zero (callers treat that as unlimited).
func ParseRate(s string) (units.Rate, error) {
	if strings.TrimSpace(s) == "" {
		return 0, nil
	}
	u := strings.ToLower(strings.TrimSpace(s))
	mult := units.Bps
	for _, suffix := range []struct {
		tag string
		m   units.Rate
	}{{"gbps", units.Gbps}, {"mbps", units.Mbps}, {"kbps", units.Kbps}, {"bps", units.Bps}} {
		if strings.HasSuffix(u, suffix.tag) {
			mult = suffix.m
			u = strings.TrimSuffix(u, suffix.tag)
			break
		}
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(u), 64)
	r := units.Rate(v) * mult
	// A finite value can still scale past the float range.
	if err != nil || !(v >= 0) || math.IsInf(float64(r), 1) {
		return 0, fmt.Errorf("cliutil: bad rate %q", s)
	}
	return r, nil
}
