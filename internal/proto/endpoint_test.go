package proto

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/obs"
	"github.com/didclab/eta/internal/sched"
	"github.com/didclab/eta/internal/units"
)

func TestParseEndpoints(t *testing.T) {
	cases := []struct {
		in   string
		want []Endpoint
		bad  bool
	}{
		{in: "host1:7001", want: []Endpoint{{Addr: "host1:7001", Weight: 1}}},
		{in: "host1:7001,host2:7002", want: []Endpoint{
			{Addr: "host1:7001", Weight: 1}, {Addr: "host2:7002", Weight: 1}}},
		{in: "host1:7001=3,host2:7002", want: []Endpoint{
			{Addr: "host1:7001", Weight: 3}, {Addr: "host2:7002", Weight: 1}}},
		{in: "host1:7001:2,host2:7002:5", want: []Endpoint{
			{Addr: "host1:7001", Weight: 2}, {Addr: "host2:7002", Weight: 5}}},
		{in: " a:1 , b:2=4 ", want: []Endpoint{
			{Addr: "a:1", Weight: 1}, {Addr: "b:2", Weight: 4}}},
		// Bracketed IPv6 without a weight must stay an address.
		{in: "[::1]:7001", want: []Endpoint{{Addr: "[::1]:7001", Weight: 1}}},
		{in: "[::1]:7001:3", want: []Endpoint{{Addr: "[::1]:7001", Weight: 3}}},
		{in: "host1:7001=0", bad: true},
		{in: "host1:7001=x", bad: true},
		{in: "host1:7001:0", bad: true},
		{in: "a:1=1048576", want: []Endpoint{{Addr: "a:1", Weight: 1 << 20}}},
		{in: "a:1=1048577", bad: true},
		{in: "a:1=4611686018427387904,b:1=4611686018427387904", bad: true},
		{in: "", bad: true},
		{in: " , ", bad: true},
	}
	for _, c := range cases {
		got, err := ParseEndpoints(c.in)
		if c.bad {
			if err == nil {
				t.Errorf("ParseEndpoints(%q) accepted, got %v", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseEndpoints(%q): %v", c.in, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("ParseEndpoints(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("ParseEndpoints(%q)[%d] = %v, want %v", c.in, i, got[i], c.want[i])
			}
		}
	}
}

// TestEndpointPoolWeightedPick proves the smooth weighted round-robin is
// exact: over any window of weightSum picks each endpoint is returned
// exactly Weight times.
func TestEndpointPoolWeightedPick(t *testing.T) {
	pool, err := NewEndpointPool(
		Endpoint{Addr: "a", Weight: 1},
		Endpoint{Addr: "b", Weight: 2},
		Endpoint{Addr: "c", Weight: 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for i := 0; i < 600; i++ {
		idx, addr := pool.Pick()
		if got := pool.Addr(idx); got != addr {
			t.Fatalf("Pick returned idx %d (%q) with addr %q", idx, got, addr)
		}
		counts[addr]++
	}
	if counts["a"] != 100 || counts["b"] != 200 || counts["c"] != 300 {
		t.Errorf("pick distribution = %v, want a:100 b:200 c:300", counts)
	}
	// No two consecutive picks of a low-weight endpoint: smoothness means
	// "a" never appears twice in a row in a 1/2/3 pool.
	prev := ""
	for i := 0; i < 60; i++ {
		_, addr := pool.Pick()
		if addr == "a" && prev == "a" {
			t.Fatal("weight-1 endpoint picked twice consecutively")
		}
		prev = addr
	}
}

// eventCount counts retained events of the given type.
func eventCount(l *obs.Log, typ string) int {
	needle := []byte(`"type":"` + typ + `"`)
	n := 0
	for _, line := range l.Tail(0) {
		if bytes.Contains(line, needle) {
			n++
		}
	}
	return n
}

func TestEndpointPoolBlacklistProbation(t *testing.T) {
	pool, err := NewEndpointPool(
		Endpoint{Addr: "a", Weight: 1},
		Endpoint{Addr: "b", Weight: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	pool.FailThreshold = 3
	pool.Probation = 100 * time.Millisecond
	pool.ProbationCap = 300 * time.Millisecond
	pool.Events = obs.NewLog(nil)
	cur := time.Unix(1000, 0)
	pool.SetClock(func() time.Time { return cur })

	boom := errors.New("dial refused")
	// Two failures: endpoint b stays in rotation.
	pool.ReportFailure(1, boom)
	pool.ReportFailure(1, boom)
	if pool.HealthyCount() != 2 {
		t.Fatalf("HealthyCount = %d after sub-threshold failures", pool.HealthyCount())
	}
	// Third consecutive failure crosses the threshold.
	pool.ReportFailure(1, boom)
	if got := eventCount(pool.Events, obs.EvEndpointBlacklisted); got != 1 {
		t.Fatalf("endpoint_blacklisted events = %d, want 1", got)
	}
	h := pool.Health()
	if !h[1].Blacklisted || h[1].ConsecutiveFails != 3 {
		t.Fatalf("health after blacklist = %+v", h[1])
	}
	if want := cur.Add(100 * time.Millisecond); !h[1].RetryAt.Equal(want) {
		t.Fatalf("RetryAt = %v, want %v", h[1].RetryAt, want)
	}
	// Blacklisted endpoints disappear from rotation entirely.
	for i := 0; i < 10; i++ {
		if idx, _ := pool.Pick(); idx != 0 {
			t.Fatalf("pick %d returned blacklisted endpoint", i)
		}
	}
	// More failures inside the blacklist period (a failure storm from
	// several dying channels) must not extend it.
	cur = cur.Add(50 * time.Millisecond)
	pool.ReportFailure(1, boom)
	pool.ReportFailure(1, boom)
	if got := pool.Health()[1].RetryAt; !got.Equal(time.Unix(1000, 0).Add(100 * time.Millisecond)) {
		t.Fatalf("failure storm extended the blacklist to %v", got)
	}

	// Past expiry the endpoint is probe-eligible: it must show up within
	// two picks of an equal-weight two-endpoint rotation.
	cur = cur.Add(60 * time.Millisecond) // t = 110ms
	if pool.HealthyCount() != 2 {
		t.Fatalf("HealthyCount = %d after probation lapsed", pool.HealthyCount())
	}
	probed := false
	for i := 0; i < 2; i++ {
		if idx, _ := pool.Pick(); idx == 1 {
			probed = true
		}
	}
	if !probed {
		t.Fatal("probeable endpoint never picked")
	}
	// A failed probe re-blacklists with doubled backoff (200ms).
	pool.ReportFailure(1, boom)
	h = pool.Health()
	if !h[1].Blacklisted {
		t.Fatal("failed probe did not re-blacklist")
	}
	if want := cur.Add(200 * time.Millisecond); !h[1].RetryAt.Equal(want) {
		t.Fatalf("RetryAt after failed probe = %v, want %v", h[1].RetryAt, want)
	}
	// Next period would be 400ms but the cap bounds it at 300ms.
	cur = cur.Add(201 * time.Millisecond)
	pool.ReportFailure(1, boom)
	if want := cur.Add(300 * time.Millisecond); !pool.Health()[1].RetryAt.Equal(want) {
		t.Fatalf("RetryAt ignored ProbationCap: %v, want %v", pool.Health()[1].RetryAt, want)
	}

	// A success — probe or surviving in-flight channel — clears the whole
	// record and emits endpoint_recovered.
	pool.ReportSuccess(1)
	h = pool.Health()
	if h[1].Blacklisted || h[1].ConsecutiveFails != 0 || !h[1].RetryAt.IsZero() {
		t.Fatalf("health after recovery = %+v", h[1])
	}
	if got := eventCount(pool.Events, obs.EvEndpointRecovered); got != 1 {
		t.Fatalf("endpoint_recovered events = %d, want 1", got)
	}
	// And the next blacklist starts from the base probation again.
	pool.ReportFailure(1, boom)
	pool.ReportFailure(1, boom)
	pool.ReportFailure(1, boom)
	if want := cur.Add(100 * time.Millisecond); !pool.Health()[1].RetryAt.Equal(want) {
		t.Fatalf("backoff not reset by recovery: RetryAt = %v, want %v", pool.Health()[1].RetryAt, want)
	}
}

// TestEndpointPoolAllDark: with every endpoint blacklisted Pick degrades
// to the soonest-recovering endpoint instead of failing, so the executor
// keeps probing through its redial path.
func TestEndpointPoolAllDark(t *testing.T) {
	pool, err := NewEndpointPool(
		Endpoint{Addr: "a", Weight: 1},
		Endpoint{Addr: "b", Weight: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	pool.FailThreshold = 1
	pool.Probation = 100 * time.Millisecond
	cur := time.Unix(2000, 0)
	pool.SetClock(func() time.Time { return cur })

	pool.ReportFailure(0, errors.New("down"))
	cur = cur.Add(30 * time.Millisecond)
	pool.ReportFailure(1, errors.New("down"))
	if pool.HealthyCount() != 0 {
		t.Fatalf("HealthyCount = %d, want 0", pool.HealthyCount())
	}
	// Endpoint 0 was blacklisted first, so it recovers first.
	for i := 0; i < 5; i++ {
		if idx, addr := pool.Pick(); idx != 0 || addr != "a" {
			t.Fatalf("all-dark pick = (%d, %q), want the soonest-recovering (0, a)", idx, addr)
		}
	}
}

func TestEndpointPoolPerEndpointMetrics(t *testing.T) {
	pool, err := NewEndpointPool(Endpoint{Addr: "a"}, Endpoint{Addr: "b"})
	if err != nil {
		t.Fatal(err)
	}
	pool.FailThreshold = 1
	reg := obs.NewRegistry()
	pool.Metrics = reg
	pool.Pick()
	pool.Pick()
	pool.ReportFailure(1, errors.New("down"))
	pool.ReportSuccess(1)
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		`endpoint_picks{endpoint="0"}`:      1,
		`endpoint_picks{endpoint="1"}`:      1,
		`endpoint_failures{endpoint="1"}`:   1,
		`endpoint_blacklists{endpoint="1"}`: 1,
		`endpoint_recoveries{endpoint="1"}`: 1,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestEndpointLabelBounded: a 40-replica pool books failures under at
// most the declared endpoint labels, "0"…"7" individually and every
// later index under "8plus".
func TestEndpointLabelBounded(t *testing.T) {
	var eps []Endpoint
	for i := 0; i < 40; i++ {
		eps = append(eps, Endpoint{Addr: fmt.Sprintf("10.0.0.%d:1", i)})
	}
	pool, err := NewEndpointPool(eps...)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	pool.Metrics = reg
	for i := range eps {
		pool.ReportFailure(i, errors.New("down"))
	}
	seen := make(map[string]int64)
	for name, n := range reg.Snapshot().Counters {
		if strings.HasPrefix(name, "endpoint_failures{") {
			seen[name] = n
		}
	}
	if len(seen) != len(endpointLabels) {
		t.Errorf("%d endpoint_failures series, want %d: %v", len(seen), len(endpointLabels), seen)
	}
	if seen[`endpoint_failures{endpoint="0"}`] != 1 || seen[`endpoint_failures{endpoint="7"}`] != 1 ||
		seen[`endpoint_failures{endpoint="8plus"}`] != 32 {
		t.Errorf("unexpected label counts %v", seen)
	}
}

// TestClientSingleAddrPool: a Client without Endpoints must behave
// exactly as before — one implicit endpoint around Addr, Target = Addr.
func TestClientSingleAddrPool(t *testing.T) {
	c := &Client{Addr: "127.0.0.1:9"}
	if got := c.Target(); got != "127.0.0.1:9" {
		t.Fatalf("Target = %q", got)
	}
	p := c.pool()
	if p.Len() != 1 || p.Addr(0) != "127.0.0.1:9" {
		t.Fatalf("implicit pool = %d endpoints, first %q", p.Len(), p.Addr(0))
	}
	// Even fully blacklisted, the sole endpoint keeps being handed out so
	// single-server outage handling stays with the redial/backoff path.
	p.FailThreshold = 1
	p.ReportFailure(0, errors.New("down"))
	if idx, addr := p.Pick(); idx != 0 || addr != "127.0.0.1:9" {
		t.Fatalf("single-endpoint fallback pick = (%d, %q)", idx, addr)
	}
}

func TestClientTargetJoinsPool(t *testing.T) {
	pool, err := NewEndpointPool(Endpoint{Addr: "a:1"}, Endpoint{Addr: "b:2", Weight: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := &Client{Endpoints: pool}
	if got := c.Target(); got != "a:1+b:2" {
		t.Fatalf("Target = %q", got)
	}
}

// BenchmarkLoopbackMultiEndpoint measures the multi-endpoint data
// plane: two loopback replicas behind an equal-weight EndpointPool, one
// steady channel per replica, 64 MB per iteration split across them.
// perfbench has no multi-replica fixture, so this is where placement
// overhead (pool picks, per-endpoint instruments) stays visible; it is
// not gated.
func BenchmarkLoopbackMultiEndpoint(b *testing.B) {
	ds := dataset.NewGenerator(1).Uniform(16, 4*units.MB)
	srvs := make([]*Server, 2)
	eps := make([]Endpoint, 2)
	for i := range srvs {
		srv, err := ListenAndServe("127.0.0.1:0", ServerConfig{Store: NewSynthStore(ds)})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		srvs[i] = srv
		eps[i] = Endpoint{Addr: srv.Addr(), Weight: 1}
	}
	pool, err := NewEndpointPool(eps...)
	if err != nil {
		b.Fatal(err)
	}
	client := &Client{Endpoints: pool}
	chans := make([]*Channel, 2)
	for i := range chans {
		ch, err := client.OpenChannel(2)
		if err != nil {
			b.Fatal(err)
		}
		defer ch.Close()
		chans[i] = ch
	}
	halves := [][]dataset.File{ds.Files[:len(ds.Files)/2], ds.Files[len(ds.Files)/2:]}
	ctx := context.Background()
	b.SetBytes(int64(ds.TotalSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Map(ctx, 2, 2, func(_ context.Context, k int) (FetchResult, error) {
			return chans[k].Fetch(halves[k], 4, discardSink{})
		}); err != nil {
			b.Fatal(err)
		}
	}
}
