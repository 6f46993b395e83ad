package proto

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/obs"
	"github.com/didclab/eta/internal/obs/span"
	"github.com/didclab/eta/internal/units"
)

// TestObsLoopbackCountersMatchReport is the observability acceptance
// check: a fully instrumented (metrics, events and spans) loopback
// transfer must produce an event log that parses line-by-line and a
// metrics snapshot whose headline counters agree exactly with the
// transfer report and with the spans in the stream.
func TestObsLoopbackCountersMatchReport(t *testing.T) {
	ds := dataset.NewGenerator(60).Uniform(12, 300*units.KB)
	srvReg := obs.NewRegistry()
	srv := synthServer(t, ds, func(c *ServerConfig) {
		c.Metrics = srvReg
		c.Events = obs.NewLog(nil)
	})

	reg := obs.NewRegistry()
	var journal bytes.Buffer
	events := obs.NewLog(&journal)
	exec := &Executor{
		Client:      &Client{Addr: srv.Addr(), VerifyChecksums: true},
		Sink:        NewVerifySink(),
		Environment: testEnv(),
		Metrics:     reg,
		Events:      events,
		Trace:       span.NewTracer(reg, events),
	}
	plan := planFor(ds, 2, 2, 3)
	r, err := exec.Run(nil, plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := events.Err(); err != nil {
		t.Fatalf("event log write error: %v", err)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["bytes_received"]; got != int64(r.Bytes) {
		t.Errorf("bytes_received = %d, report says %d", got, int64(r.Bytes))
	}
	if got := snap.Counters["files_completed"]; got != r.Files || got != int64(len(ds.Files)) {
		t.Errorf("files_completed = %d, report says %d, dataset has %d",
			got, r.Files, len(ds.Files))
	}
	if got := snap.Counters["retries_total"]; got != r.Retries || got != 0 {
		t.Errorf("retries_total = %d, report says %d (clean loopback should need none)",
			got, r.Retries)
	}
	if snap.Counters["transfers_started"] != 1 || snap.Counters["transfers_finished"] != 1 {
		t.Errorf("transfer lifecycle counters wrong: %v", snap.Counters)
	}
	if snap.Counters["channels_dialed"] == 0 {
		t.Error("no channel dials recorded")
	}
	if snap.Counters["gets_issued"] == 0 || snap.Counters["gets_settled"] != snap.Counters["gets_issued"] {
		t.Errorf("GET accounting wrong: issued=%d settled=%d failed=%d",
			snap.Counters["gets_issued"], snap.Counters["gets_settled"], snap.Counters["gets_failed"])
	}

	// The server side keeps its own registry: every byte we received it
	// served, on one session.
	srvSnap := srvReg.Snapshot()
	if got := srvSnap.Counters["server_bytes_served"]; got != int64(r.Bytes) {
		t.Errorf("server_bytes_served = %d, client received %d", got, int64(r.Bytes))
	}
	if srvSnap.Counters["server_sessions_total"] == 0 {
		t.Error("no server sessions recorded")
	}
	if srvSnap.Counters["server_requests_failed"] != 0 {
		t.Errorf("server_requests_failed = %d on a clean run", srvSnap.Counters["server_requests_failed"])
	}

	// Every event line must be valid JSON with the envelope keys, and the
	// lifecycle spans must appear: one transfer span, one channel_dial
	// end per dialed channel, one get end per settled GET.
	spans := map[string]int{} // "span_begin transfer", "span_end get", ...
	lastSeq := int64(0)
	sc := bufio.NewScanner(&journal)
	for line := 1; sc.Scan(); line++ {
		var ev struct {
			Seq  int64  `json:"seq"`
			T    string `json:"t"`
			Type string `json:"type"`
			Name string `json:"name"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("event line %d does not parse: %v\n%s", line, err, sc.Text())
		}
		if ev.Seq <= lastSeq || ev.T == "" || ev.Type == "" {
			t.Fatalf("event line %d envelope wrong: %s", line, sc.Text())
		}
		lastSeq = ev.Seq
		if ev.Type == obs.EvSpanBegin || ev.Type == obs.EvSpanEnd {
			spans[ev.Type+" "+ev.Name]++
		}
	}
	if spans["span_begin transfer"] != 1 || spans["span_end transfer"] != 1 {
		t.Errorf("want exactly one transfer span begin/end pair, saw %v", spans)
	}
	if got := spans["span_end channel_dial"]; got == 0 || got != int(snap.Counters["channels_dialed"]) {
		t.Errorf("%d channel_dial span ends, counter says %d", got, snap.Counters["channels_dialed"])
	}
	if got := spans["span_end get"]; got == 0 || got != int(snap.Counters["gets_settled"]) {
		t.Errorf("%d get span ends, counter says %d", got, snap.Counters["gets_settled"])
	}
}
