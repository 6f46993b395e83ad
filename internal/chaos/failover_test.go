package chaos_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/obs"
	"github.com/didclab/eta/internal/proto"
	"github.com/didclab/eta/internal/units"
)

// eventsOfType returns the retained event lines of the given type.
func eventsOfType(l *obs.Log, typ string) [][]byte {
	needle := []byte(`"type":"` + typ + `"`)
	var out [][]byte
	for _, line := range l.Tail(0) {
		if bytes.Contains(line, needle) {
			out = append(out, line)
		}
	}
	return out
}

// endpointsIn returns which endpoint indexes (0..n-1) appear in the
// given event lines' `"endpoint":i` fields.
func endpointsIn(lines [][]byte, n int) map[int]bool {
	seen := make(map[int]bool)
	for _, line := range lines {
		for i := 0; i < n; i++ {
			if bytes.Contains(line, []byte(fmt.Sprintf(`"endpoint":%d`, i))) {
				seen[i] = true
			}
		}
	}
	return seen
}

// TestFailoverReplicaKillRestart is the multi-endpoint acceptance
// scenario: a transfer striped across three real xferd-equivalent
// replicas survives one replica being killed and later restarted
// mid-transfer. The dead replica's channels fail, the endpoint is
// blacklisted and their replacements land on the two survivors; once the
// replica returns, a probe placed through the pool recovers it. Delivery
// must be byte-identical and the retry/redial books reconciled.
func TestFailoverReplicaKillRestart(t *testing.T) {
	ds := dataset.NewGenerator(60).Uniform(32, 1*units.MB)
	slow := func(c *proto.ServerConfig) {
		c.PerStreamRate = 40 * units.Mbps // the kill and restart land mid-flight
	}
	srvs := make([]*proto.Server, 3)
	eps := make([]proto.Endpoint, 3)
	for i := range srvs {
		srvs[i] = synthServer(t, ds, slow)
		eps[i] = proto.Endpoint{Addr: srvs[i].Addr(), Weight: 1}
	}
	pool, err := proto.NewEndpointPool(eps...)
	if err != nil {
		t.Fatal(err)
	}
	// One failure is proof enough on loopback, and short probation keeps
	// the replica's comeback inside the test's horizon.
	pool.FailThreshold = 1
	pool.Probation = 50 * time.Millisecond
	pool.ProbationCap = 100 * time.Millisecond

	reg := obs.NewRegistry()
	events := obs.NewLog(nil)
	dir := t.TempDir()
	exec := &proto.Executor{
		Client: &proto.Client{
			Endpoints:       pool,
			VerifyChecksums: true,
			StallTimeout:    200 * time.Millisecond,
		},
		Sink:        proto.NewDirSink(dir),
		Environment: testEnv(),
		MaxRetries:  32,
		Metrics:     reg,
		Events:      events,
		Label:       "failover",
	}
	chunk := dataset.Chunk{Class: dataset.Large, Files: ds.Files, Parallelism: 2, Pipelining: 2}
	sess, err := exec.Start(context.Background(), planForChunk(chunk, 3))
	if err != nil {
		t.Fatal(err)
	}

	// Kill replica 1 mid-transfer. Server.Close severs every live
	// session conn, so its channels die exactly as a crashed process's
	// would.
	time.Sleep(150 * time.Millisecond)
	victimAddr := srvs[1].Addr()
	srvs[1].Close()

	// Bring it back on the same address a little later.
	time.Sleep(200 * time.Millisecond)
	cfg := proto.ServerConfig{Store: proto.NewSynthStore(ds), Logf: t.Logf}
	slow(&cfg)
	restarted, err := proto.ListenAndServe(victimAddr, cfg)
	if err != nil {
		t.Fatalf("restarting replica on %s: %v", victimAddr, err)
	}
	t.Cleanup(func() { restarted.Close() })

	// Drive the probe through the transfer path: once the victim's
	// blacklist lapses, cycling the allocation down and back up makes
	// reconcile place fresh channels through the pool; round-robin over
	// the three eligible endpoints reaches the restarted replica within a
	// couple of cycles, its dial succeeds and the endpoint recovers.
	deadline := wallNow().Add(5 * time.Second)
	for len(eventsOfType(events, obs.EvEndpointRecovered)) == 0 {
		if wallNow().After(deadline) {
			t.Fatal("restarted replica never recovered")
		}
		if pool.HealthyCount() < 3 {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if err := sess.SetTotalChannels(3); err != nil {
			t.Fatal(err)
		}
		if err := sess.SetTotalChannels(6); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	r, err := sess.Finish()
	if err != nil {
		t.Fatalf("transfer did not survive the replica kill/restart: %v", err)
	}

	// Byte-identical delivery: every file equals its canonical content.
	assertContent(t, dir, ds)
	if r.Bytes < ds.TotalSize() {
		t.Errorf("moved only %v of %v", r.Bytes, ds.TotalSize())
	}

	// The kill must have cost something, and the books must reconcile.
	snap := reg.Snapshot()
	if r.Retries == 0 {
		t.Error("no retries recorded across a replica kill")
	}
	if got := snap.Counters["retries_total"]; got != r.Retries {
		t.Errorf("retries_total = %d, report says %d", got, r.Retries)
	}
	if got := snap.Counters["channels_redialed"]; got < 1 {
		t.Errorf("channels_redialed = %d, want >= 1", got)
	}

	// Health lifecycle: the victim was blacklisted and later recovered.
	if got := eventsOfType(events, obs.EvEndpointBlacklisted); len(got) == 0 {
		t.Error("no endpoint_blacklisted event for the killed replica")
	} else if seen := endpointsIn(got, 3); !seen[1] {
		t.Errorf("blacklist events name endpoints %v, want victim 1", seen)
	}
	if got := eventsOfType(events, obs.EvEndpointRecovered); len(got) == 0 {
		t.Error("no endpoint_recovered event after the replica restart")
	} else if seen := endpointsIn(got, 3); !seen[1] {
		t.Errorf("recovery events name endpoints %v, want victim 1", seen)
	}

	// Placement actually striped across replicas.
	placed := endpointsIn(eventsOfType(events, obs.EvChannelPlaced), 3)
	if len(placed) < 2 {
		t.Errorf("channels placed on endpoints %v, want at least two distinct replicas", placed)
	}
}

// TestFailoverDeadReplicaStaysOut: when a killed replica never returns,
// the transfer still completes on the survivors — replacement channels
// avoid the blacklisted endpoint while it stays dark.
func TestFailoverDeadReplicaStaysOut(t *testing.T) {
	ds := dataset.NewGenerator(61).Uniform(16, 500*units.KB)
	slow := func(c *proto.ServerConfig) {
		c.PerStreamRate = 60 * units.Mbps
	}
	srvs := make([]*proto.Server, 3)
	eps := make([]proto.Endpoint, 3)
	for i := range srvs {
		srvs[i] = synthServer(t, ds, slow)
		eps[i] = proto.Endpoint{Addr: srvs[i].Addr(), Weight: 1}
	}
	pool, err := proto.NewEndpointPool(eps...)
	if err != nil {
		t.Fatal(err)
	}
	pool.FailThreshold = 1
	pool.Probation = 100 * time.Millisecond

	dir := t.TempDir()
	exec := &proto.Executor{
		Client: &proto.Client{
			Endpoints:       pool,
			VerifyChecksums: true,
			StallTimeout:    200 * time.Millisecond,
		},
		Sink:        proto.NewDirSink(dir),
		Environment: testEnv(),
		MaxRetries:  32,
		Events:      obs.NewLog(nil),
	}
	chunk := dataset.Chunk{Class: dataset.Large, Files: ds.Files, Parallelism: 2, Pipelining: 2}
	sess, err := exec.Start(context.Background(), planForChunk(chunk, 3))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	srvs[2].Close() // and it never comes back
	r, err := sess.Finish()
	if err != nil {
		t.Fatalf("transfer did not survive losing a replica for good: %v", err)
	}
	assertContent(t, dir, ds)
	if r.Bytes < ds.TotalSize() {
		t.Errorf("moved only %v of %v", r.Bytes, ds.TotalSize())
	}
}
