// Package metriclintfix exercises metriclint's name rule. The obs API
// surface is mirrored locally: the analyzer matches by receiver type
// name (Registry, Log), so the fixture needs no imports.
package metriclintfix

type Counter struct{}

func (c *Counter) Inc() {}

type Registry struct{}

func (r *Registry) Counter(name string) *Counter                        { return nil }
func (r *Registry) Gauge(name string) *Counter                          { return nil }
func (r *Registry) Histogram(name string, bounds ...float64) *Counter   { return nil }
func (r *Registry) Family(name, label string, values ...string) *Family { return nil }

type Family struct{}

func (f *Family) With(value string) *Counter { return nil }

type Log struct{}

func (l *Log) Emit(typ string, kv ...any) {}

const evRetry = "retry_scheduled"

func names(r *Registry, dyn string) {
	r.Counter("bytes_total")                 // constant snake_case: ok
	r.Gauge("inflight")                      // single word: ok
	r.Histogram("rtt_seconds", 0.01, 0.1, 1) // bounds unchecked: ok
	r.Family("retries_by_cause", "cause")    // name and label both checked: ok
	r.Counter("BytesTotal")                  // want `metric name "BytesTotal" is not snake_case`
	r.Counter("bytes-total")                 // want `metric name "bytes-total" is not snake_case`
	r.Family("faults", "Kind")               // want `label key "Kind" is not snake_case`
	r.Counter(dyn)                           // want `metric name must be a compile-time constant`
	r.Counter("prefix_" + dyn)               // want `metric name must be a compile-time constant`
	r.Counter("prefix_" + "suffix")          // constant folding: ok
	name := "queued_total"
	r.Counter(name) // want `metric name must be a compile-time constant`
}

// counter forwards a name through a parameter. Every call site below
// passes a constant, but the rule follows no variables: the forwarded
// name is flagged.
func counter(r *Registry, name string) *Counter {
	return r.Counter(name) // want `metric name must be a compile-time constant`
}

func useHelpers(r *Registry) {
	counter(r, "blocks_total")
}

// Exported returns are invisible to in-package callers, so a name
// forwarded through an exported function cannot be proven constant.
func RegisterAny(r *Registry, name string) *Counter {
	return r.Counter(name) // want `metric name must be a compile-time constant`
}

// Label values are not checked: a family counts undeclared values
// under its last declared one, so any argument is safe.
func labels(f *Family, err error) {
	f.With("stall")
	f.With(err.Error())
}

func events(l *Log, sid int, remote string, kv []any) {
	l.Emit("channel_dialed", "sid", sid, "remote", remote) // ok
	l.Emit(evRetry, "attempt", 1)                          // named constant: ok
	l.Emit("BadType")                                      // want `event type "BadType" is not snake_case`
	l.Emit("ok_event", "BadKey", 1)                        // want `event key "BadKey" is not snake_case`
	l.Emit("ok_event", remote, 1)                          // want `event key must be a compile-time constant`
	l.Emit("spread_event", kv...)                          // spread kv: keys unverifiable, skipped
}
