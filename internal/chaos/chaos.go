// Package chaos is a deterministic, seedable fault-injection subsystem
// for the real-TCP transfer stack. Its centerpiece is Proxy, a TCP
// proxy that sits between a transfer client and server and injects
// faults from a scripted schedule: connection resets, read/write stalls
// and black-holes, partial writes, single-byte payload corruption,
// latency spikes, and full listener outages with restore.
//
// Determinism is the design constraint that separates this package from
// an ad-hoc test helper. Faults fire when a specific proxied
// connection's server→client byte stream crosses a scripted offset —
// never on wall-clock time — so a given schedule perturbs a given
// transfer at exactly the same protocol positions on every run.
// Schedules are either written by hand (when a test needs a fault at a
// precise stream offset, e.g. inside a block payload rather than its
// header) or generated from a seed with SeededSchedule. Every injected
// fault is counted in a chaos_faults_injected metric family and, when
// the proxy has a tracer, recorded as a chaos_fault span, so chaos runs
// are replayable and auditable after the fact.
//
// The package deliberately depends on nothing but the standard library
// and internal/obs (scripts/lint.sh audits this), sits in the nodeterm
// analyzer's deterministic set (no wall-clock reads, no global RNG) and
// is one of the few packages allowed to spawn raw goroutines (nakedgo).
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Kind names a fault class. The taxonomy follows how real end-to-end
// transfers die (DESIGN.md §9): fast failures (reset), silent ones
// (stall, blackhole), data damage (corrupt, partial), jitter (latency)
// and service loss (outage).
type Kind string

const (
	// Reset severs the target connection immediately: the peer sees a
	// hard transport error on its next read or write.
	Reset Kind = "reset"
	// Stall pauses server→client forwarding on the target connection
	// for Duration, then resumes. A stall longer than the client's
	// watchdog timeout models a temporarily black-holed path; a short
	// one is just a hiccup.
	Stall Kind = "stall"
	// Blackhole stops server→client forwarding on the target connection
	// forever (until the connection dies or the proxy closes). The
	// connection stays open — only a progress watchdog can tell this
	// apart from a slow link.
	Blackhole Kind = "blackhole"
	// Corrupt XORs the single byte at stream offset At with 0xFF and
	// forwards everything else untouched — the minimal integrity fault
	// a checksum must catch.
	Corrupt Kind = "corrupt"
	// Partial forwards only half of the chunk in flight when the fault
	// fires, drops the rest, and severs the connection: a truncated
	// write followed by connection loss.
	Partial Kind = "partial"
	// Latency delays the chunk in flight by Duration, then forwards it
	// and resumes normal service — a one-shot latency spike.
	Latency Kind = "latency"
	// Outage closes the proxy's listener and severs every live proxied
	// connection; new dials fail until the listener is restored after
	// Duration (restore is skipped when Duration is zero or negative —
	// use Restart for manual control).
	Outage Kind = "outage"
)

// Kinds lists every fault class, in taxonomy order.
var Kinds = []Kind{Reset, Stall, Blackhole, Corrupt, Partial, Latency, Outage}

// Step is one scripted fault. It fires when connection Conn's
// server→client stream reaches byte offset At; both coordinates are
// deterministic for a deterministic workload, which is what makes chaos
// schedules replayable.
type Step struct {
	// Conn is the proxied connection the fault targets, in accept order
	// (0 is the first connection the proxy accepted). For a transfer
	// channel the client dials the control connection first, then its
	// data streams, so conn 0 is control and conns 1..parallelism are
	// data. Outage steps use Conn only as the trigger.
	Conn int
	// At is the byte offset in the connection's server→client stream at
	// which the fault fires: the fault applies to the chunk containing
	// byte At (for Corrupt, to byte At itself).
	At int64
	// Kind is the fault class.
	Kind Kind
	// Duration parameterizes Stall, Latency and Outage.
	Duration time.Duration
}

// Validate rejects malformed schedules: unknown kinds, negative
// coordinates, or time-parameterized faults without a duration.
func Validate(schedule []Step) error {
	known := make(map[Kind]bool, len(Kinds))
	for _, k := range Kinds {
		known[k] = true
	}
	for i, s := range schedule {
		if !known[s.Kind] {
			return fmt.Errorf("chaos: step %d has unknown kind %q", i, s.Kind)
		}
		if s.Conn < 0 {
			return fmt.Errorf("chaos: step %d targets negative conn %d", i, s.Conn)
		}
		if s.At < 0 {
			return fmt.Errorf("chaos: step %d fires at negative offset %d", i, s.At)
		}
		if (s.Kind == Stall || s.Kind == Latency) && s.Duration <= 0 {
			return fmt.Errorf("chaos: step %d (%s) needs a positive duration", i, s.Kind)
		}
	}
	return nil
}

// SeededSchedule derives a deterministic schedule of n faults from a
// seed: same seed, same schedule, every time. Faults are spread over
// connections [0, conns) and stream offsets [0, window), with durations
// drawn from [5ms, 55ms). Blackhole and Outage are excluded — they
// require a watchdog (or manual Restart) to make progress, so soak
// loops script them explicitly rather than drawing them blind.
func SeededSchedule(seed int64, n, conns int, window int64) []Step {
	if n <= 0 || conns <= 0 || window <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	kinds := []Kind{Reset, Stall, Corrupt, Partial, Latency}
	steps := make([]Step, n)
	for i := range steps {
		steps[i] = Step{
			Conn:     rng.Intn(conns),
			At:       rng.Int63n(window),
			Kind:     kinds[rng.Intn(len(kinds))],
			Duration: 5*time.Millisecond + time.Duration(rng.Int63n(int64(50*time.Millisecond))),
		}
	}
	sortSteps(steps)
	return steps
}

// sortSteps orders a schedule by (Conn, At) — the order each
// connection's pipe loop consumes its steps in. The sort is stable so
// two faults scripted at the same offset keep their authored order.
func sortSteps(steps []Step) {
	sort.SliceStable(steps, func(i, j int) bool {
		if steps[i].Conn != steps[j].Conn {
			return steps[i].Conn < steps[j].Conn
		}
		return steps[i].At < steps[j].At
	})
}
