package span

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// Record is one reconstructed span from a recorded events stream.
type Record struct {
	Trace  string
	ID     uint64
	Parent uint64
	Name   string
	Start  time.Time
	End    time.Time
	DurMS  float64
	// Bytes is what the span_end reported moved; PlannedBytes is the
	// begin-time "bytes" attr (a transfer root's plan total), 0 when
	// the begin carried none.
	Bytes        int64
	PlannedBytes int64
	// Joules is the online (inclusive) estimate the span_end carried.
	Joules float64
	// SelfJoules is the offline exclusive attribution filled by
	// Attribute: the exact sampled energy of the intervals this span
	// was a live leaf for. Self-joules over a forest sum to the
	// sampled total.
	SelfJoules float64
	// Attrs holds every other key the begin/end events carried.
	Attrs map[string]any
	// Open reports a span_begin with no matching span_end (a leak).
	Open bool

	Children []*Record
}

// EnergyPoint is one cumulative-energy sample from the stream
// (energy_model_sample → joules_total).
type EnergyPoint struct {
	T time.Time
	J float64
}

// Forest is a reconstructed span forest plus the energy curve recorded
// alongside it.
type Forest struct {
	Roots []*Record
	ByID  map[uint64]*Record
	// Samples is the cumulative-energy curve in time order.
	Samples []EnergyPoint
	// Leaked are spans that began but never ended.
	Leaked []*Record
	// Dangling counts span_end events whose begin was never seen
	// (ring-buffer truncation or a partial capture).
	Dangling int
	// Unattributed is energy from intervals during which no span was
	// live, filled by Attribute.
	Unattributed float64
}

// TotalJoules returns the final cumulative sample minus the first —
// the energy the recorded curve spans.
func (f *Forest) TotalJoules() float64 {
	if len(f.Samples) == 0 {
		return 0
	}
	return f.Samples[len(f.Samples)-1].J - f.Samples[0].J
}

// FinalJoules returns the last cumulative sample — the source's
// absolute energy total at the end of the recording (what the sum of
// attributed self-joules is checked against, since Attribute anchors
// the curve at zero).
func (f *Forest) FinalJoules() float64 {
	if len(f.Samples) == 0 {
		return 0
	}
	return f.Samples[len(f.Samples)-1].J
}

// SpanCount returns how many spans the forest holds.
func (f *Forest) SpanCount() int { return len(f.ByID) }

// maxDurMS is the longest span duration a time.Duration can hold.
const maxDurMS = float64(math.MaxInt64 / int64(time.Millisecond))

// ReadForest reconstructs the span forest from a JSONL events stream
// (the obs.Log format): span_begin/span_end pairs become Records,
// energy_model_sample events become the energy curve, everything else
// is skipped. Span ends are anchored as Start+DurMS rather than the
// span_end event's own timestamp, so a forest survives coarse or
// slightly skewed event-log clocks. A span_end whose dur_ms is
// negative or overflows a time.Duration is an error, so every closed
// span ends no earlier than it starts. So is a span whose parent chain
// loops, so every span is reached from exactly one root.
func ReadForest(r io.Reader) (*Forest, error) {
	f := &Forest{ByID: make(map[uint64]*Record)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev map[string]any
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("span: line %d: %w", lineNo, err)
		}
		typ, _ := ev["type"].(string)
		switch typ {
		case "span_begin":
			rec := &Record{
				Trace:        str(ev, "trace"),
				ID:           u64(ev, "span"),
				Parent:       u64(ev, "parent"),
				Name:         str(ev, "name"),
				Open:         true,
				PlannedBytes: int64(f64(ev, "bytes")),
			}
			t, err := evTime(ev)
			if err != nil {
				return nil, fmt.Errorf("span: line %d: %w", lineNo, err)
			}
			rec.Start = t
			rec.Attrs = extraAttrs(ev)
			f.ByID[rec.ID] = rec
		case "span_end":
			id := u64(ev, "span")
			rec := f.ByID[id]
			if rec == nil {
				f.Dangling++
				continue
			}
			dur := f64(ev, "dur_ms")
			if !(dur >= 0 && dur <= maxDurMS) {
				return nil, fmt.Errorf("span: line %d: span %d has bad dur_ms %v", lineNo, id, dur)
			}
			rec.Open = false
			rec.DurMS = dur
			rec.Bytes = int64(f64(ev, "bytes"))
			rec.Joules = f64(ev, "joules")
			rec.End = rec.Start.Add(time.Duration(rec.DurMS * float64(time.Millisecond)))
			for k, v := range extraAttrs(ev) {
				if rec.Attrs == nil {
					rec.Attrs = make(map[string]any)
				}
				rec.Attrs[k] = v
			}
		case "energy_model_sample":
			t, err := evTime(ev)
			if err != nil {
				return nil, fmt.Errorf("span: line %d: %w", lineNo, err)
			}
			f.Samples = append(f.Samples, EnergyPoint{T: t, J: f64(ev, "joules_total")})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Slice(f.Samples, func(i, j int) bool { return f.Samples[i].T.Before(f.Samples[j].T) })

	// Link children and collect roots/leaks. A span whose parent was
	// never seen (truncated capture) is promoted to a root.
	ids := make([]uint64, 0, len(f.ByID))
	for id := range f.ByID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if id, ok := loopingSpan(f.ByID, ids); ok {
		return nil, parentCycleError{span: id}
	}
	for _, id := range ids {
		rec := f.ByID[id]
		if rec.Open {
			f.Leaked = append(f.Leaked, rec)
		}
		if p := f.ByID[rec.Parent]; rec.Parent != 0 && p != nil {
			p.Children = append(p.Children, rec)
		} else {
			f.Roots = append(f.Roots, rec)
		}
	}
	return f, nil
}

// parentCycleError names a span whose parent chain loops.
type parentCycleError struct{ span uint64 }

func (e parentCycleError) Error() string {
	return fmt.Sprintf("span: span %d's parent chain loops back to itself", e.span)
}

// loopingSpan finds a span on a parent cycle (a span its own parent, or
// a chain of parents that returns to its start). Such a span would be
// linked as a child and never reached from a root. Each span is walked
// once: a chain stops at a root, an unseen parent or a span already
// walked.
func loopingSpan(byID map[uint64]*Record, ids []uint64) (uint64, bool) {
	const onPath, walked = 1, 2
	state := make(map[uint64]uint8, len(ids))
	var path []uint64
	for _, id := range ids {
		path = path[:0]
		for cur := id; state[cur] != walked; {
			if state[cur] == onPath {
				return cur, true
			}
			rec := byID[cur]
			if rec == nil {
				break
			}
			state[cur] = onPath
			path = append(path, cur)
			if rec.Parent == 0 {
				break
			}
			cur = rec.Parent
		}
		for _, p := range path {
			state[p] = walked
		}
	}
	return 0, false
}

// spanEdge is one begin/end boundary in the attribution sweep.
type spanEdge struct {
	t     time.Time
	begin bool
	rec   *Record
}

// Attribute replays the recorded energy curve over the forest and fills
// each Record's SelfJoules: for every interval between consecutive span
// boundaries, the curve's exact energy delta is split equally among the
// spans that were live LEAVES (live spans none of whose children were
// live) during it. Leaf-exclusive splitting is what makes self-joules
// sum to the curve total instead of multiply counting parents over
// their children; intervals with no live span book into
// Forest.Unattributed. Open (leaked) spans are skipped — their end is
// unknown.
func Attribute(f *Forest) {
	if f == nil || len(f.Samples) == 0 {
		return
	}
	curve := f.Samples
	// If spans began before the first sample, anchor the curve at zero
	// energy at the earliest span start: sources are primed when the
	// transfer starts, so cumulative energy there is the curve origin.
	var edges []spanEdge
	for _, rec := range f.ByID {
		if rec.Open {
			continue
		}
		edges = append(edges, spanEdge{t: rec.Start, begin: true, rec: rec})
		edges = append(edges, spanEdge{t: rec.End, begin: false, rec: rec})
	}
	if len(edges) == 0 {
		return
	}
	sort.Slice(edges, func(i, j int) bool {
		if !edges[i].t.Equal(edges[j].t) {
			return edges[i].t.Before(edges[j].t)
		}
		// Begins before ends at the same instant, so zero-length spans
		// still count as live for their instant.
		return edges[i].begin && !edges[j].begin
	})
	// Spans beginning before the first recorded sample get an anchor at
	// zero energy: the source is primed when the transfer starts, so the
	// cumulative curve's origin is the earliest span start. Without it
	// the energy of the prime→first-sample interval (the transfer was
	// already moving bytes) would clamp away and the self-joules sum
	// would undershoot the source total.
	if first := edges[0].t; first.Before(curve[0].T) {
		curve = append([]EnergyPoint{{T: first, J: 0}}, curve...)
	}

	energyAt := func(ts time.Time) float64 { return interpEnergy(curve, ts) }

	live := make(map[*Record]struct{})
	liveKids := make(map[*Record]int) // live children per live parent
	i := 0
	for i < len(edges) {
		t0 := edges[i].t
		// Apply every edge at t0.
		for i < len(edges) && edges[i].t.Equal(t0) {
			e := edges[i]
			if e.begin {
				live[e.rec] = struct{}{}
				if p := f.ByID[e.rec.Parent]; p != nil {
					liveKids[p]++
				}
			} else {
				delete(live, e.rec)
				if p := f.ByID[e.rec.Parent]; p != nil {
					if liveKids[p]--; liveKids[p] == 0 {
						delete(liveKids, p)
					}
				}
			}
			i++
		}
		if i >= len(edges) {
			break
		}
		t1 := edges[i].t
		dE := energyAt(t1) - energyAt(t0)
		if dE <= 0 {
			continue
		}
		var leaves []*Record
		for rec := range live {
			if liveKids[rec] == 0 {
				leaves = append(leaves, rec)
			}
		}
		if len(leaves) == 0 {
			f.Unattributed += dE
			continue
		}
		share := dE / float64(len(leaves))
		for _, rec := range leaves {
			rec.SelfJoules += share
		}
	}
	// Energy before the first edge or after the last is outside every
	// span's life.
	f.Unattributed += energyAt(edges[0].t) - curve[0].J
	f.Unattributed += curve[len(curve)-1].J - energyAt(edges[len(edges)-1].t)
}

// interpEnergy evaluates the piecewise-linear cumulative curve at ts
// (clamped flat before the first and after the last sample).
func interpEnergy(curve []EnergyPoint, ts time.Time) float64 {
	if len(curve) == 0 {
		return 0
	}
	if !ts.After(curve[0].T) {
		return curve[0].J
	}
	last := curve[len(curve)-1]
	if !ts.Before(last.T) {
		return last.J
	}
	i := sort.Search(len(curve), func(i int) bool { return !curve[i].T.Before(ts) })
	a, b := curve[i-1], curve[i]
	dt := b.T.Sub(a.T).Seconds()
	if dt <= 0 {
		return b.J
	}
	frac := ts.Sub(a.T).Seconds() / dt
	return a.J + (b.J-a.J)*frac
}

// SumSelfJoules returns the forest-wide sum of attributed self-joules,
// accumulated in span-ID order so the float total is run-stable.
func (f *Forest) SumSelfJoules() float64 {
	ids := make([]uint64, 0, len(f.ByID))
	for id := range f.ByID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var total float64
	for _, id := range ids {
		total += f.ByID[id].SelfJoules
	}
	return total
}

// Check verifies a forest after Attribute: it holds at least one span,
// no span leaked (began without ending) and no span_end dangles (ended
// without a begin). When energy was sampled, two identities must hold
// within tol of FinalJoules: every sampled joule is attributed to a
// span or to Unattributed (ΣSelfJoules+Unattributed == FinalJoules),
// and the spans cover the whole curve (ΣSelfJoules == FinalJoules).
// Every violation is reported, one per line of the joined error.
func (f *Forest) Check(tol float64) error {
	if f.SpanCount() == 0 {
		return errors.New("no spans in the stream")
	}
	var errs []error
	if n := len(f.Leaked); n > 0 {
		names := make(map[string]int)
		for _, rec := range f.Leaked {
			names[rec.Name]++
		}
		errs = append(errs, fmt.Errorf("%d leaked spans (span_begin without span_end): %v", n, names))
	}
	if f.Dangling > 0 {
		errs = append(errs, fmt.Errorf("%d dangling span_end events (no matching begin)", f.Dangling))
	}
	if total := f.FinalJoules(); total > 0 {
		attributed := f.SumSelfJoules()
		if !(math.Abs(attributed+f.Unattributed-total) <= tol*total) {
			errs = append(errs, fmt.Errorf(
				"energy accounting broken: attributed %.3fJ + unattributed %.3fJ vs source total %.3fJ",
				attributed, f.Unattributed, total))
		}
		if !(math.Abs(attributed-total) <= tol*total) {
			errs = append(errs, fmt.Errorf(
				"per-span joules sum %.3fJ misses source total %.3fJ by %.2f%% (tolerance %.2f%%)",
				attributed, total, math.Abs(attributed-total)/total*100, tol*100))
		}
	}
	return errors.Join(errs...)
}

// CriticalPath walks root's last-finishing chain: at each node the
// child whose End is latest, until a leaf. It is the dependency chain
// that bounded the root's duration.
func CriticalPath(root *Record) []*Record {
	if root == nil {
		return nil
	}
	path := []*Record{root}
	cur := root
	for {
		var last *Record
		for _, c := range cur.Children {
			if c.Open {
				continue
			}
			if last == nil || c.End.After(last.End) {
				last = c
			}
		}
		if last == nil {
			return path
		}
		path = append(path, last)
		cur = last
	}
}
