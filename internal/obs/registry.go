package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add books n occurrences (negative deltas are ignored).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc books one occurrence.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float value (last write wins).
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add applies a delta to the gauge.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the gauge's current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histWindow is how many recent observations a histogram retains for
// its sliding-window statistics.
const histWindow = 256

// Histogram accumulates observations into cumulative buckets and keeps
// a count-based window of the most recent observations so snapshots can
// report both lifetime shape and recent behaviour.
type Histogram struct {
	bounds []float64 // sorted finite upper bounds; overflow is implicit

	mu     sync.Mutex
	counts []int64 // len(bounds)+1, last is overflow
	count  int64
	sum    float64
	window []float64 // ring of the last histWindow observations
	next   int
	full   bool
}

// DefaultBuckets is the bucket layout used when a histogram is created
// without explicit bounds: decade-ish steps covering microseconds to
// minutes when observing milliseconds, or bytes to gigabytes when
// observing sizes.
var DefaultBuckets = []float64{0.1, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 60000}

// Observe books one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.count++
	h.sum += v
	h.window[h.next] = v
	h.next++
	if h.next == len(h.window) {
		h.next = 0
		h.full = true
	}
}

// Bucket is one cumulative histogram bucket: Count observations were
// at most Le.
type Bucket struct {
	Le    float64 `json:"le"`
	Count int64   `json:"count"`
}

// WindowStats summarizes a histogram's recent observations.
type WindowStats struct {
	Count int     `json:"count"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count   int64       `json:"count"`
	Sum     float64     `json:"sum"`
	Buckets []Bucket    `json:"buckets,omitempty"`
	Window  WindowStats `json:"window"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{Count: h.count, Sum: h.sum}
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i]
		s.Buckets = append(s.Buckets, Bucket{Le: b, Count: cum})
	}
	win := h.window[:h.next]
	if h.full {
		win = h.window
	}
	for i, v := range win {
		if i == 0 || v < s.Window.Min {
			s.Window.Min = v
		}
		if i == 0 || v > s.Window.Max {
			s.Window.Max = v
		}
		s.Window.Mean += v
	}
	s.Window.Count = len(win)
	if len(win) > 0 {
		s.Window.Mean /= float64(len(win))
	}
	return s
}

// Family is a set of counters sharing one name and distinguished by a
// single label — e.g. retries by cause, or dials by endpoint. Its label
// values are declared when it is registered, and a value outside that
// set counts under the last declared one (the overflow bucket), so a
// family never holds more series than it declared. In snapshots each
// member that has counted something appears as `name{label="value"}`.
type Family struct {
	name, label string
	values      []string
	kids        []Counter // kids[i] counts values[i]
}

// With returns the counter for one label value; an undeclared value
// gets the overflow counter.
func (f *Family) With(value string) *Counter {
	if f == nil {
		return nil
	}
	for i, v := range f.values {
		if v == value {
			return &f.kids[i]
		}
	}
	return &f.kids[len(f.kids)-1]
}

// Registry is a named collection of metrics. Metrics are get-or-create:
// the first caller of Counter("x") allocates it, later callers share
// it. All methods are safe for concurrent use and safe on a nil
// registry (they return nil metrics, whose methods are no-ops).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	families map[string]*Family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = make(map[string]*Counter)
	}
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gauges == nil {
		r.gauges = make(map[string]*Gauge)
	}
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// finite upper bounds (DefaultBuckets when none) on first use. Later
// calls ignore the bounds and return the existing histogram.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hists == nil {
		r.hists = make(map[string]*Histogram)
	}
	h := r.hists[name]
	if h == nil {
		if len(bounds) == 0 {
			bounds = DefaultBuckets
		}
		bs := append([]float64(nil), bounds...)
		sort.Float64s(bs)
		h = &Histogram{
			bounds: bs,
			counts: make([]int64, len(bs)+1),
			window: make([]float64, histWindow),
		}
		r.hists[name] = h
	}
	return h
}

// Family returns the labeled counter family, creating it on first use
// with the given label values; the last value is the overflow bucket
// for any value not in the list. Later calls ignore the values and
// return the existing family. Family panics if a new family declares
// no values.
func (r *Registry) Family(name, label string, values ...string) *Family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.families == nil {
		r.families = make(map[string]*Family)
	}
	f := r.families[name]
	if f == nil {
		if len(values) == 0 {
			panic(fmt.Sprintf("obs: family %q declares no label values", name))
		}
		f = &Family{
			name:   name,
			label:  label,
			values: append([]string(nil), values...),
			kids:   make([]Counter, len(values)),
		}
		r.families[name] = f
	}
	return f
}

// Snapshot is a point-in-time copy of every metric in a registry.
// Family members are flattened into Counters as `name{label="value"}`.
// Map keys sort deterministically under encoding/json, so two
// snapshots of identical registries marshal identically.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	families := make(map[string]*Family, len(r.families))
	for k, v := range r.families {
		families[k] = v
	}
	r.mu.Unlock()

	if len(counters) > 0 || len(families) > 0 {
		s.Counters = make(map[string]int64, len(counters))
	}
	for name, c := range counters {
		s.Counters[name] = c.Value()
	}
	for name, f := range families {
		for i, value := range f.values {
			if n := f.kids[i].Value(); n > 0 {
				s.Counters[fmt.Sprintf("%s{%s=%q}", name, f.label, value)] = n
			}
		}
	}
	if len(gauges) > 0 {
		s.Gauges = make(map[string]float64, len(gauges))
		for name, g := range gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(hists))
		for name, h := range hists {
			s.Histograms[name] = h.snapshot()
		}
	}
	return s
}

// WriteJSON writes the registry snapshot as indented JSON — the payload
// of the /metrics endpoint and of the cmd tools' --metrics dumps.
func (r *Registry) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
