package proto

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/obs"
	"github.com/didclab/eta/internal/obs/span"
	"github.com/didclab/eta/internal/units"
)

// fakeModelEnergy mimics monitor.ModelSource for tracing tests: a
// constant-power cumulative source that emits an energy_model_sample
// event (the curve the offline attribution replays) on every Total but
// the first. Like ModelSource, the first call primes it: the meter
// starts at zero then, and no sample is emitted, so the curve starts
// with the transfer rather than with the fixture's setup.
type fakeModelEnergy struct {
	prime sync.Once
	start time.Time
	watts float64
	log   *obs.Log
}

func (f *fakeModelEnergy) Total() (units.Joules, error) {
	primed := false
	f.prime.Do(func() { f.start, primed = time.Now(), true })
	if primed {
		return 0, nil
	}
	j := f.watts * time.Since(f.start).Seconds()
	f.log.Emit(obs.EvEnergyModel, "joules_total", j, "watts", f.watts)
	return units.Joules(j), nil
}

// waitNoLiveSpans waits for every span to close: channel and
// server-session spans end asynchronously during teardown.
func waitNoLiveSpans(t *testing.T, tr *span.Tracer) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for tr.LiveCount() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d spans still open after teardown", tr.LiveCount())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestTracedLoopback is the tracing acceptance check: a traced loopback
// transfer (client and server sharing one tracer and event log) must
// reconstruct into a balanced span forest whose attributed self-joules
// sum to the energy source's final total within 1%.
func TestTracedLoopback(t *testing.T) {
	ds := dataset.NewGenerator(61).Uniform(10, 256*units.KB)
	reg := obs.NewRegistry()
	var journal bytes.Buffer
	events := obs.NewLog(&journal)
	tracer := span.NewTracer(reg, events)

	srv := synthServer(t, ds, func(c *ServerConfig) {
		c.Events = events
		c.Trace = tracer
	})
	energy := &fakeModelEnergy{watts: 42, log: events}
	exec := &Executor{
		Client:      &Client{Addr: srv.Addr(), VerifyChecksums: true},
		Sink:        NewVerifySink(),
		Energy:      energy,
		Environment: testEnv(),
		Metrics:     reg,
		Events:      events,
		Trace:       tracer,
		Label:       "traced",
	}
	r, err := exec.Run(context.Background(), planFor(ds, 2, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	// Server sessions (and their spans) close when the server does.
	srv.Close()
	waitNoLiveSpans(t, tracer)

	// One timeline: the stream holds spans plus the point events of
	// DESIGN.md §8.2, and nothing that restates a span.
	pointEvents := map[string]bool{
		obs.EvChannelPlaced: true, obs.EvEndpointBlacklisted: true, obs.EvEndpointRecovered: true,
		obs.EvChunkRealloc: true, obs.EvEnergySample: true, obs.EvEnergyModel: true,
		obs.EvStallDetected: true, obs.EvServerDraining: true, obs.EvServerDrained: true,
		obs.EvRecoveryPlanned: true, obs.EvSpanBegin: true, obs.EvSpanEnd: true,
	}
	sc := bufio.NewScanner(bytes.NewReader(journal.Bytes()))
	for sc.Scan() {
		var ev struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("event line does not parse: %v\n%s", err, sc.Text())
		}
		if !pointEvents[ev.Type] {
			t.Errorf("event type %q is not in DESIGN.md §8.2: %s", ev.Type, sc.Text())
		}
	}

	forest, err := span.ReadForest(bytes.NewReader(journal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Balanced, and the exclusive self-joules over the whole forest sum
	// to the source's final cumulative total within 1%.
	span.Attribute(forest)
	if forest.FinalJoules() <= 0 {
		t.Fatal("no energy samples in the journal")
	}
	if err := forest.Check(0.01); err != nil {
		t.Fatal(err)
	}
	byName := map[string]int{}
	for _, rec := range forest.ByID {
		byName[rec.Name]++
	}
	for _, want := range []string{
		span.NameTransfer, span.NameChunk, span.NameChannel, span.NameChannelDial,
		span.NameChannelStream, span.NameGet, span.NameServerSession,
		span.NameServerGet, span.NameServerStream,
	} {
		if byName[want] == 0 {
			t.Errorf("no %q span in the forest (saw %v)", want, byName)
		}
	}
	if byName[span.NameTransfer] != 1 {
		t.Errorf("%d transfer roots, want 1", byName[span.NameTransfer])
	}
	if byName[span.NameGet] != len(ds.Files) {
		t.Errorf("%d get spans for %d files", byName[span.NameGet], len(ds.Files))
	}

	// The transfer root's subtree must carry every payload byte on its
	// get spans.
	var root *span.Record
	for _, rec := range forest.Roots {
		if rec.Name == span.NameTransfer {
			root = rec
		}
	}
	if root == nil {
		t.Fatal("no transfer root")
	}
	// The root span covers (essentially) the whole source interval, so
	// the online estimate its span_end carried must be close to the
	// report's source total.
	if root.Joules <= 0 {
		t.Errorf("transfer root joules = %v, want > 0", root.Joules)
	}
	if rel := math.Abs(root.Joules-float64(r.EndSystemEnergy)) / float64(r.EndSystemEnergy); rel > 0.05 {
		t.Errorf("transfer root joules %v vs EndSystemEnergy %v (%.1f%% off)",
			root.Joules, r.EndSystemEnergy, rel*100)
	}
	// The root carries the plan's byte total from its begin and the
	// report's totals from its end.
	if root.PlannedBytes != int64(ds.TotalSize()) {
		t.Errorf("transfer root planned %d bytes, dataset has %d", root.PlannedBytes, int64(ds.TotalSize()))
	}
	if root.Bytes != int64(r.Bytes) || root.Attrs["files"] != float64(r.Files) ||
		root.Attrs["retries"] != float64(0) || root.Attrs["sequential"] != false {
		t.Errorf("transfer root bytes %d, attrs %v; report %d bytes, %d files",
			root.Bytes, root.Attrs, int64(r.Bytes), r.Files)
	}
	var getBytes int64
	for _, rec := range forest.ByID {
		if rec.Name == span.NameGet {
			getBytes += rec.Bytes
		}
	}
	if getBytes != int64(ds.TotalSize()) {
		t.Errorf("get spans carry %d bytes, dataset has %d", getBytes, int64(ds.TotalSize()))
	}
	if path := span.CriticalPath(root); len(path) < 2 {
		t.Errorf("critical path has %d spans, want the root plus at least one child", len(path))
	}
}
