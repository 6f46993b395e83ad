package chaos_test

import (
	"bytes"
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/didclab/eta/internal/chaos"
	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/obs"
	"github.com/didclab/eta/internal/obs/span"
	"github.com/didclab/eta/internal/proto"
	"github.com/didclab/eta/internal/units"
)

// tracedEnergy is a constant-power cumulative source that records the
// energy_model_sample curve the offline attribution replays. Like
// monitor.ModelSource, its first Total primes it at zero and emits no
// sample.
type tracedEnergy struct {
	prime sync.Once
	start time.Time
	watts float64
	log   *obs.Log
}

func (f *tracedEnergy) Total() (units.Joules, error) {
	primed := false
	f.prime.Do(func() { f.start, primed = wallNow(), true })
	if primed {
		return 0, nil
	}
	j := f.watts * wallNow().Sub(f.start).Seconds()
	f.log.Emit(obs.EvEnergyModel, "joules_total", j, "watts", f.watts)
	return units.Joules(j), nil
}

// TestChaosSoakTracedSpans is the tracing variant of the soak: a
// transfer through a faulting proxy — with the client, the server AND
// the proxy sharing one tracer — must still produce a balanced span
// forest (every span_begin matched by a span_end, chaos_fault spans
// included), and the offline per-span energy attribution must sum to
// the source's final total within tolerance.
func TestChaosSoakTracedSpans(t *testing.T) {
	ds := dataset.NewGenerator(64).Uniform(8, 300*units.KB)
	reg := obs.NewRegistry()
	var journal bytes.Buffer
	events := obs.NewLog(&journal)
	tracer := span.NewTracer(reg, events)

	srv := synthServer(t, ds, func(c *proto.ServerConfig) {
		c.Events = events
		c.Trace = tracer
	})
	proxy := newProxy(t, srv.Addr(), chaos.Options{
		Schedule: []chaos.Step{
			{Conn: 1, At: 120_000, Kind: chaos.Stall, Duration: 400 * time.Millisecond},
			{Conn: 1, At: 200_000, Kind: chaos.Reset},
			{Conn: 3, At: 150_000, Kind: chaos.Corrupt},
		},
		Metrics: reg,
		Trace:   tracer,
	})
	dir := t.TempDir()
	exec := chaosExec(t, proxy.Addr(), dir, reg, 16, 150*time.Millisecond)
	exec.Energy = &tracedEnergy{watts: 40, log: events}
	exec.Events = events
	exec.Trace = tracer
	chunk := dataset.Chunk{Class: dataset.Large, Files: ds.Files, Parallelism: 1, Pipelining: 2}

	r, err := exec.Run(context.Background(), planForChunk(chunk, 1))
	if err != nil {
		t.Fatalf("traced transfer did not survive the schedule: %v", err)
	}
	assertContent(t, dir, ds)
	injected := proxy.InjectedTotal()
	if injected == 0 {
		t.Fatal("no faults injected — the schedule never fired")
	}

	// Channel, server-session and chaos_fault spans all close during
	// teardown; outstanding outage/stall spans unwind on proxy.Close.
	proxy.Close()
	srv.Close()
	deadline := wallNow().Add(5 * time.Second)
	for tracer.LiveCount() > 0 {
		if wallNow().After(deadline) {
			t.Fatalf("%d spans still open after teardown", tracer.LiveCount())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := events.Flush(); err != nil {
		t.Fatal(err)
	}

	forest, err := span.ReadForest(bytes.NewReader(journal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
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
	// The transfer root's span_end carries its online joules estimate,
	// which covers (essentially) the whole source interval.
	roots := 0
	for _, rec := range forest.Roots {
		if rec.Name != span.NameTransfer {
			continue
		}
		roots++
		if rel := math.Abs(rec.Joules-float64(r.EndSystemEnergy)) / float64(r.EndSystemEnergy); rel > 0.05 {
			t.Errorf("transfer root joules %v vs EndSystemEnergy %v (%.1f%% off)",
				rec.Joules, r.EndSystemEnergy, rel*100)
		}
	}
	if roots != 1 {
		t.Errorf("%d transfer roots, want 1", roots)
	}
	if got := byName[span.NameChaosFault]; int64(got) != injected {
		t.Errorf("%d chaos_fault spans for %d injected faults", got, injected)
	}
	// The reset (and the watchdog tripping on the stall) force re-dials,
	// which the forest must show as retry + redial spans.
	if byName[span.NameChannelRedial] == 0 && byName[span.NameRetry] == 0 {
		t.Errorf("no redial or retry spans after faults (forest: %v)", byName)
	}
}
