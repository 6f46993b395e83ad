package proto

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/didclab/eta/internal/obs"
)

// Endpoint is one transfer-server replica plus its placement weight.
// The paper's GO baseline spreads channels "across all available
// transfer servers" and ProMC allocates them by weight; an Endpoint is
// one such server as the real-TCP client sees it.
type Endpoint struct {
	Addr string
	// Weight is the endpoint's share of channel placements relative to
	// its peers; values below 1 are treated as 1.
	Weight int
}

// maxEndpointWeight caps a parsed weight so the pool's weight sum stays
// far from overflow: smooth weighted round-robin adds every eligible
// weight into one int on each Pick.
const maxEndpointWeight = 1 << 20

// ParseEndpoints parses a comma-separated weighted endpoint list, the
// value of the CLI `-addrs` flag. Each element is `addr` (weight 1),
// `addr=weight`, or `host:port:weight` — the trailing `:weight` form is
// only recognized when what precedes it still contains a colon and does
// not end in `]`, so plain `host:port` and bracketed IPv6 addresses
// parse as addresses. Weights run from 1 to 1<<20.
func ParseEndpoints(list string) ([]Endpoint, error) {
	var eps []Endpoint
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		addr, weight := part, "1"
		if k := strings.LastIndexByte(part, '='); k >= 0 {
			addr, weight = part[:k], part[k+1:]
		} else if k := strings.LastIndexByte(part, ':'); k > 0 {
			head := part[:k]
			if strings.Contains(head, ":") && !strings.HasSuffix(head, "]") {
				addr, weight = head, part[k+1:]
			}
		}
		w, err := strconv.Atoi(weight)
		if err != nil || w < 1 || w > maxEndpointWeight {
			return nil, fmt.Errorf("proto: bad endpoint weight in %q (want 1..%d)", part, maxEndpointWeight)
		}
		if addr == "" {
			return nil, fmt.Errorf("proto: empty endpoint address in %q", list)
		}
		eps = append(eps, Endpoint{Addr: addr, Weight: w})
	}
	if len(eps) == 0 {
		return nil, fmt.Errorf("proto: empty endpoint list %q", list)
	}
	return eps, nil
}

// Default health parameters; see the EndpointPool fields for semantics.
const (
	defaultFailThreshold = 3
	defaultProbation     = 250 * time.Millisecond
	defaultProbationCap  = 5 * time.Second
)

// epState is one endpoint's live health record.
type epState struct {
	ep  Endpoint
	cur int // smooth weighted round-robin accumulator

	fails   int           // consecutive failures since the last success
	dark    bool          // blacklisted (possibly past expiry, i.e. on probation)
	until   time.Time     // blacklist expiry; after it one probe is allowed
	backoff time.Duration // the NEXT blacklist period (doubles, capped)
}

// EndpointPool holds N server replicas with per-endpoint health state
// and hands out placement decisions. Pick is a smooth weighted
// round-robin over the endpoints currently eligible: an endpoint
// disappears from rotation after FailThreshold consecutive failures
// (blacklisting) and reappears when its blacklist period lapses
// (probation) — a failed probe re-blacklists it for twice the period,
// capped at ProbationCap, while one success clears the record entirely.
// When every endpoint is dark, Pick returns the one whose blacklist
// expires soonest instead of failing, so a transfer against a wholly
// unreachable site keeps feeding the executor's dial/backoff path
// rather than erroring out of band.
//
// All methods are safe for concurrent use; a nil pool is inert (Len 0).
type EndpointPool struct {
	// FailThreshold is how many consecutive failures blacklist an
	// endpoint; defaultFailThreshold when zero.
	FailThreshold int
	// Probation is the first blacklist period; defaultProbation when
	// zero. Each re-blacklist doubles it up to ProbationCap.
	Probation time.Duration
	// ProbationCap bounds the doubled blacklist periods;
	// defaultProbationCap when zero.
	ProbationCap time.Duration
	// Metrics receives per-endpoint health counters; optional. Set
	// before first use.
	Metrics *obs.Registry
	// Events receives endpoint_blacklisted/endpoint_recovered events;
	// optional. Set before first use.
	Events *obs.Log

	mu  sync.Mutex
	eps []*epState
	now obs.Clock

	instOnce sync.Once
	inst     poolInstruments
}

// poolInstruments caches the pool's per-endpoint counter families.
type poolInstruments struct {
	picks      *obs.Family
	failures   *obs.Family
	blacklists *obs.Family
	recoveries *obs.Family
}

// NewEndpointPool builds a pool over the given replicas. Weights below
// 1 are lifted to 1.
func NewEndpointPool(eps ...Endpoint) (*EndpointPool, error) {
	if len(eps) == 0 {
		return nil, fmt.Errorf("proto: endpoint pool needs at least one endpoint")
	}
	p := &EndpointPool{now: time.Now}
	for _, ep := range eps {
		if ep.Addr == "" {
			return nil, fmt.Errorf("proto: endpoint with empty address")
		}
		if ep.Weight < 1 {
			ep.Weight = 1
		}
		p.eps = append(p.eps, &epState{ep: ep})
	}
	return p, nil
}

// SetClock overrides the pool's time source (tests).
func (p *EndpointPool) SetClock(c obs.Clock) {
	if p == nil || c == nil {
		return
	}
	p.mu.Lock()
	p.now = c
	p.mu.Unlock()
}

// instruments resolves the pool's metric handles once; with no Metrics
// registry every handle is nil and every update a no-op.
func (p *EndpointPool) instruments() *poolInstruments {
	p.instOnce.Do(func() {
		r := p.Metrics
		p.inst = poolInstruments{
			picks:      r.Family("endpoint_picks", "endpoint", endpointLabels...),
			failures:   r.Family("endpoint_failures", "endpoint", endpointLabels...),
			blacklists: r.Family("endpoint_blacklists", "endpoint", endpointLabels...),
			recoveries: r.Family("endpoint_recoveries", "endpoint", endpointLabels...),
		}
	})
	return &p.inst
}

// endpointLabels is the label set of the per-endpoint families, which
// are labelled strconv.Itoa(index): small pools label each replica
// individually, and every index past the first eight counts under the
// "8plus" overflow value.
var endpointLabels = []string{"0", "1", "2", "3", "4", "5", "6", "7", "8plus"}

// Len returns the number of endpoints in the pool.
func (p *EndpointPool) Len() int {
	if p == nil {
		return 0
	}
	return len(p.eps)
}

// Addr returns endpoint i's address ("" when out of range).
func (p *EndpointPool) Addr(i int) string {
	if p == nil || i < 0 || i >= len(p.eps) {
		return ""
	}
	return p.eps[i].ep.Addr
}

func (p *EndpointPool) failThreshold() int {
	if p.FailThreshold > 0 {
		return p.FailThreshold
	}
	return defaultFailThreshold
}

func (p *EndpointPool) probation() time.Duration {
	if p.Probation > 0 {
		return p.Probation
	}
	return defaultProbation
}

func (p *EndpointPool) probationCap() time.Duration {
	if p.ProbationCap > 0 {
		return p.ProbationCap
	}
	return defaultProbationCap
}

// eligible reports whether endpoint s may be handed out at time now:
// healthy, or dark with its blacklist period lapsed (a probe).
func (s *epState) eligible(now time.Time) bool {
	return !s.dark || !now.Before(s.until)
}

// Pick returns the next endpoint (index and address) under smooth
// weighted round-robin over the currently eligible endpoints. Within
// any window of totalEligibleWeight consecutive picks each eligible
// endpoint is returned exactly Weight times, so channel placement
// follows the configured weights without randomness. When every
// endpoint is blacklisted the one recovering soonest is returned.
func (p *EndpointPool) Pick() (int, string) {
	p.mu.Lock()
	now := p.now()
	best, weightSum := -1, 0
	for i, s := range p.eps {
		if !s.eligible(now) {
			continue
		}
		s.cur += s.ep.Weight
		weightSum += s.ep.Weight
		if best < 0 || s.cur > p.eps[best].cur {
			best = i
		}
	}
	if best >= 0 {
		p.eps[best].cur -= weightSum
	} else {
		// Every endpoint is dark: hand out the one whose blacklist
		// lapses soonest so a restored replica is probed first.
		for i, s := range p.eps {
			if best < 0 || s.until.Before(p.eps[best].until) {
				best = i
			}
		}
	}
	addr := p.eps[best].ep.Addr
	p.mu.Unlock()
	p.instruments().picks.With(strconv.Itoa(best)).Inc()
	return best, addr
}

// ReportSuccess clears endpoint i's failure record. A success on a dark
// endpoint (a probe that worked, or an in-flight channel outliving the
// blacklist) restores it to full rotation and emits endpoint_recovered.
func (p *EndpointPool) ReportSuccess(i int) {
	if p == nil || i < 0 || i >= len(p.eps) {
		return
	}
	p.mu.Lock()
	s := p.eps[i]
	recovered := s.dark
	s.fails = 0
	s.dark = false
	s.until = time.Time{}
	s.backoff = 0
	p.mu.Unlock()
	if recovered {
		p.instruments().recoveries.With(strconv.Itoa(i)).Inc()
		p.Events.Emit(obs.EvEndpointRecovered, "endpoint", i, "addr", s.ep.Addr)
	}
}

// ReportFailure books one failure against endpoint i. Crossing
// FailThreshold consecutive failures — or failing a probe after the
// blacklist lapsed — blacklists the endpoint with a capped doubling
// backoff. Failures reported while the endpoint is already serving its
// blacklist period (e.g. several in-flight channels dying together when
// a replica goes down) are counted but do not extend the period.
func (p *EndpointPool) ReportFailure(i int, err error) {
	if p == nil || i < 0 || i >= len(p.eps) {
		return
	}
	p.mu.Lock()
	s := p.eps[i]
	now := p.now()
	s.fails++
	fails := s.fails
	blacklist := fails >= p.failThreshold() && (!s.dark || !now.Before(s.until))
	var period time.Duration
	if blacklist {
		period = s.backoff
		if period <= 0 {
			period = p.probation()
		}
		s.dark = true
		s.until = now.Add(period)
		if s.backoff = period * 2; s.backoff > p.probationCap() {
			s.backoff = p.probationCap()
		}
	}
	p.mu.Unlock()
	p.instruments().failures.With(strconv.Itoa(i)).Inc()
	if blacklist {
		p.instruments().blacklists.With(strconv.Itoa(i)).Inc()
		p.Events.Emit(obs.EvEndpointBlacklisted,
			"endpoint", i,
			"addr", s.ep.Addr,
			"consecutive_failures", fails,
			"retry_in_ms", period.Milliseconds(),
			"error", fmt.Sprint(err))
	}
}

// EndpointHealth is one endpoint's health snapshot.
type EndpointHealth struct {
	Addr             string
	Weight           int
	ConsecutiveFails int
	Blacklisted      bool      // dark and still inside the blacklist period
	RetryAt          time.Time // when a dark endpoint becomes probeable
}

// Health snapshots every endpoint's state, in pool order.
func (p *EndpointPool) Health() []EndpointHealth {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.now()
	out := make([]EndpointHealth, len(p.eps))
	for i, s := range p.eps {
		out[i] = EndpointHealth{
			Addr:             s.ep.Addr,
			Weight:           s.ep.Weight,
			ConsecutiveFails: s.fails,
			Blacklisted:      s.dark && now.Before(s.until),
			RetryAt:          s.until,
		}
	}
	return out
}

// HealthyCount returns how many endpoints are currently eligible for
// placement (healthy or probeable).
func (p *EndpointPool) HealthyCount() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.now()
	n := 0
	for _, s := range p.eps {
		if s.eligible(now) {
			n++
		}
	}
	return n
}
