package transfer

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/didclab/eta/internal/endsys"
	"github.com/didclab/eta/internal/power"
	"github.com/didclab/eta/internal/testbed"
	"github.com/didclab/eta/internal/units"
)

// DefaultTick is the simulation quantum. Power is integrated once per
// tick at the rates in force; file completions are resolved exactly
// within a tick.
const DefaultTick = 100 * time.Millisecond

// DefaultMaxSimTime aborts runaway simulations.
const DefaultMaxSimTime = 96 * time.Hour

// SampleWindow is the paper's measurement interval: adaptive algorithms
// evaluate each operating point for five seconds (§2.4, §2.5).
const SampleWindow = 5 * time.Second

// Sim is the simulated Executor: it moves a plan's bytes across a
// testbed's analytic network, disk and power models.
type Sim struct {
	TB   testbed.Testbed
	Tick time.Duration
	// MaxSimTime bounds simulated (not wall-clock) time.
	MaxSimTime time.Duration
	// Label names the algorithm in reports.
	Label string
	// Background, when non-nil, returns the fraction of the path's
	// bandwidth consumed by cross traffic at a simulated time — shared
	// research networks are rarely idle, and the adaptive algorithms
	// must cope with capacity that moves under them. Values are
	// clamped to [0, 0.95].
	Background func(at time.Duration) float64
}

// NewSim returns a simulator for tb.
func NewSim(tb testbed.Testbed) *Sim {
	return &Sim{TB: tb, Tick: DefaultTick, MaxSimTime: DefaultMaxSimTime}
}

// Env implements Executor.
func (s *Sim) Env() Environment {
	return Environment{
		Path:           s.TB.Path,
		MaxChannels:    s.TB.BFMaxConcurrency,
		ServersPerSite: s.TB.ServersPerSite,
	}
}

// Run implements Executor.
func (s *Sim) Run(ctx context.Context, plan Plan) (Report, error) {
	sess, err := s.Start(ctx, plan)
	if err != nil {
		return Report{}, err
	}
	return sess.Finish()
}

// Start implements Executor.
func (s *Sim) Start(ctx context.Context, plan Plan) (Session, error) {
	if err := s.TB.Validate(); err != nil {
		return nil, fmt.Errorf("transfer: invalid testbed: %w", err)
	}
	if err := plan.Validate(s.Env()); err != nil {
		return nil, err
	}
	tick := s.Tick
	if tick <= 0 {
		tick = DefaultTick
	}
	maxSim := s.MaxSimTime
	if maxSim <= 0 {
		maxSim = DefaultMaxSimTime
	}
	servers := max(1, s.TB.ServersPerSite)
	sess := &simSession{
		ctx:     ctx,
		sim:     s,
		plan:    plan,
		tick:    tick,
		maxSim:  maxSim,
		perByte: chainEnergyPerByte(s),
		sites:   [2]*endsys.Server{&s.TB.Source, &s.TB.Dest},
		acc:     make([]int, servers),
		loads:   make([]srvLoad, servers),
	}
	if ctx != nil {
		sess.done = ctx.Done()
	}
	for i := range plan.Chunks {
		cp := plan.Chunks[i]
		ch := &simChunk{plan: cp, idx: i}
		for _, f := range cp.Chunk.Files {
			ch.bytesLeft += float64(f.Size)
		}
		sess.chunks = append(sess.chunks, ch)
		sess.total += cp.Chunk.TotalSize()
	}
	alloc := make([]int, len(plan.Chunks))
	Placement(alloc, plan, sess.queued)
	sess.applyAllocation(alloc)
	return sess, nil
}

// chainEnergyPerByte linearizes the per-packet device model into joules
// per payload byte for cheap per-tick accumulation.
func chainEnergyPerByte(s *Sim) float64 {
	mss := s.TB.Path.MSS
	if mss <= 0 {
		mss = 1500
	}
	var perPacket float64
	for _, d := range s.TB.NetChain {
		perPacket += float64(d.PerPacketEnergy(mss))
	}
	return perPacket / float64(mss)
}

// simChunk is a chunk's live transfer state. Fresh files are consumed
// from plan.Chunk.Files[head:]; files returned by de-allocated channels
// are pushed onto partials and drained first.
type simChunk struct {
	plan        ChunkPlan
	idx         int // position in the plan
	head        int
	partials    []float64
	bytesLeft   float64
	completedAt time.Duration
	completed   bool
}

func (c *simChunk) popFile() (float64, bool) {
	if n := len(c.partials); n > 0 {
		f := c.partials[n-1]
		c.partials = c.partials[:n-1]
		return f, true
	}
	if files := c.plan.Chunk.Files; c.head < len(files) {
		f := float64(files[c.head].Size)
		c.head++
		return f, true
	}
	return 0, false
}

func (c *simChunk) hasQueuedFiles() bool {
	return len(c.partials) > 0 || c.head < len(c.plan.Chunk.Files)
}

// simChannel is one data channel: a control connection plus
// `parallelism` data streams working on one file at a time.
type simChannel struct {
	chunk     *simChunk
	serverIdx int
	hasFile   bool
	fileLeft  float64
	coldLeft  float64
	gap       time.Duration
	rate      units.Rate // set by rates
}

// srvLoad is one site server's load during a tick.
type srvLoad struct {
	rate    float64
	procs   int
	streams int
}

type simSession struct {
	ctx    context.Context
	done   <-chan struct{} // ctx.Done(), nil when ctx cannot be cancelled
	sim    *Sim
	plan   Plan
	tick   time.Duration
	maxSim time.Duration

	now      time.Duration
	chunks   []*simChunk
	channels []*simChannel
	nextSrv  int

	total      units.Bytes
	movedF     float64
	meter      power.Meter
	perByte    float64
	netEnergy  units.Joules
	samples    []Sample
	finished   bool
	activeConc int

	// Rates and power are pure functions of the event state: which
	// channels exist and on which chunk and server, which hold a file,
	// sit in a gap or are still cold, and which chunks have files queued.
	// dirty is set whenever one of those changes (applyAllocation,
	// takeFile, a file finishing, a gap reaching 0, a channel leaving
	// slow start); a tick that starts clean keeps the channels' rates and
	// books watts, the power integratePower last returned.
	dirty bool
	watts units.Watts

	sites [2]*endsys.Server // source and destination server models
	// Per-tick scratch indexed by site server, cleared and reused every
	// tick so that a tick allocates nothing.
	acc   []int     // live channels per server
	loads []srvLoad // load per server, for integratePower
}

var errSimTimeout = errors.New("transfer: simulation exceeded MaxSimTime (transfer starved?)")

// Done implements Session: every chunk is drained and no channel holds
// an unfinished file. This is exact regardless of floating-point byte
// accounting.
func (s *simSession) Done() bool {
	for _, c := range s.chunks {
		if c.hasQueuedFiles() {
			return false
		}
	}
	for _, ch := range s.channels {
		if ch.hasFile {
			return false
		}
	}
	return true
}

func (s *simSession) remainingF() float64 { return float64(s.total) - s.movedF }

// Remaining implements Session.
func (s *simSession) Remaining() units.Bytes {
	r := s.remainingF()
	if r < 0 {
		return 0
	}
	return units.Bytes(r)
}

// SetTotalChannels implements Session: SplitByWeight over the chunks
// that still have queued files or in-flight bytes.
func (s *simSession) SetTotalChannels(n int) error {
	if err := CheckTotal(n, s.sim.Env().MaxChannels); err != nil {
		return err
	}
	alloc := make([]int, len(s.chunks))
	if SplitByWeight(alloc, n, s.weight, s.live) {
		s.applyAllocation(alloc)
	}
	return nil
}

// SetAllocation implements Session.
func (s *simSession) SetAllocation(channels []int) error {
	if err := CheckAllocation(channels, len(s.chunks), s.sim.Env().MaxChannels); err != nil {
		return err
	}
	s.applyAllocation(channels)
	return nil
}

// weight, live, queued and bytesLeft are the per-chunk inputs of the
// allocation rules (alloc.go).
func (s *simSession) weight(i int) float64 { return s.chunks[i].plan.Weight }

func (s *simSession) live(i int) bool { return s.chunks[i].bytesLeft > 0 }

func (s *simSession) queued(i int) bool { return s.chunks[i].hasQueuedFiles() }

func (s *simSession) bytesLeft(i int) float64 { return s.chunks[i].bytesLeft }

// applyAllocation reshapes the channel set to match the target per
// chunk. Surplus channels return their in-progress file to the chunk;
// new channels start cold.
func (s *simSession) applyAllocation(target []int) {
	s.dirty = true
	current := make([][]*simChannel, len(s.chunks))
	for _, ch := range s.channels {
		current[ch.chunk.idx] = append(current[ch.chunk.idx], ch)
	}
	var next []*simChannel
	for i, c := range s.chunks {
		want := target[i]
		have := current[i]
		if want < len(have) {
			for _, ch := range have[want:] {
				if ch.hasFile {
					c.partials = append(c.partials, ch.fileLeft)
					ch.hasFile = false
				}
			}
			have = have[:want]
		}
		for len(have) < want {
			have = append(have, s.newChannel(c))
		}
		next = append(next, have...)
	}
	s.channels = next
}

func (s *simSession) newChannel(c *simChunk) *simChannel {
	ch := &simChannel{
		chunk:    c,
		coldLeft: float64(s.sim.TB.Path.SlowStartBytes()) * float64(c.plan.Parallelism()),
	}
	if s.plan.SpreadServers {
		ch.serverIdx = s.nextSrv % len(s.acc)
		s.nextSrv++
	}
	return ch
}

// Advance implements Session.
func (s *simSession) Advance(d time.Duration) (Sample, error) {
	if d <= 0 {
		return Sample{}, fmt.Errorf("transfer: non-positive advance %v", d)
	}
	start := s.now
	startBytes := s.movedF
	startEnergy := s.meter.Total()
	startNet := s.netEnergy
	var elapsed time.Duration
	for elapsed < d && !s.Done() {
		if err := s.ctxErr(); err != nil {
			return Sample{}, err
		}
		if s.now > s.maxSim {
			return Sample{}, errSimTimeout
		}
		step := s.tick
		if rem := d - elapsed; rem < step {
			step = rem
		}
		s.step(step)
		elapsed += step
	}
	sample := Sample{
		Start:           start,
		Duration:        elapsed,
		Bytes:           units.Bytes(s.movedF - startBytes),
		EndSystemEnergy: s.meter.Total() - startEnergy,
		NetworkEnergy:   s.netEnergy - startNet,
		ActiveChannels:  s.activeConc,
	}
	sample.Throughput = units.RateOf(sample.Bytes, sample.Duration)
	s.samples = append(s.samples, sample)
	return sample, nil
}

// ctxErr polls for cancellation. It selects on the cached Done channel
// rather than calling ctx.Err every tick: Err takes a mutex that every
// sched worker sharing the context contends on.
func (s *simSession) ctxErr() error {
	select {
	case <-s.done:
		return s.ctx.Err()
	default:
		return nil
	}
}

// Finish implements Session.
func (s *simSession) Finish() (Report, error) {
	for !s.Done() {
		if _, err := s.Advance(SampleWindow); err != nil {
			return Report{}, err
		}
	}
	s.finished = true
	r := Report{
		Algorithm:       s.sim.Label,
		Testbed:         s.sim.TB.Name,
		Duration:        s.now,
		Bytes:           units.Bytes(s.movedF + 0.5),
		Throughput:      units.RateOf(units.Bytes(s.movedF), s.now),
		EndSystemEnergy: s.meter.Total(),
		NetworkEnergy:   s.netEnergy,
		AvgPower:        s.meter.Average(),
		PeakPower:       s.meter.Peak(),
		Samples:         s.samples,
	}
	for _, c := range s.chunks {
		completedAt := c.completedAt
		if !c.completed {
			completedAt = s.now
		}
		r.Chunks = append(r.Chunks, ChunkReport{
			Class:           c.plan.Chunk.Class,
			Files:           c.plan.Chunk.Count(),
			Bytes:           c.plan.Chunk.TotalSize(),
			CompletedAt:     completedAt,
			InitialChannels: c.plan.Channels,
		})
	}
	return r, nil
}

// step advances the simulation by dt: assigns files, sets rates, moves
// bytes and integrates power. Rates and power are recomputed only when
// the event state changed (see dirty), or every tick when cross
// traffic moves the path's bandwidth; otherwise the previous tick's
// values still hold exactly, and bytes, gaps and energy accumulate in
// the same order either way.
func (s *simSession) step(dt time.Duration) {
	s.assignFiles()
	recompute := s.dirty || s.sim.Background != nil
	if recompute {
		s.rates()
	}
	s.dirty = false
	// Move bytes; a channel may finish several small files in one tick.
	for _, ch := range s.channels {
		s.advanceChannel(ch, dt)
	}
	// Power reads the rates just set and the state after the bytes
	// moved; an event during the move leaves dirty set for the next
	// tick's rates too.
	if recompute || s.dirty {
		s.watts = s.integratePower()
	}
	s.meter.Add(s.watts, dt)
	s.now += dt
}

// rates sets every channel's rate for the tick. Bandwidth is shared
// among the streams that are actually transferring; channels sitting in
// a per-file gap do not reserve link share (their streams are idle),
// but they still get a provisional rate so a file picked up mid-tick
// proceeds immediately — otherwise gap differences smaller than the
// tick would be quantized away and pipelining would appear useless.
func (s *simSession) rates() {
	totalStreams := 0
	for _, ch := range s.channels {
		if ch.hasFile {
			totalStreams += ch.chunk.plan.Parallelism()
		}
	}
	if totalStreams == 0 {
		for _, ch := range s.channels {
			if s.channelLive(ch) {
				totalStreams += ch.chunk.plan.Parallelism()
			}
		}
	}
	path := &s.sim.TB.Path
	if bg := s.sim.Background; bg != nil {
		frac := units.ClampF(bg(s.now), 0, 0.95)
		shared := *path
		shared.Bandwidth = units.Rate(float64(shared.Bandwidth) * (1 - frac))
		path = &shared
	}
	var perStream float64
	if totalStreams > 0 {
		perStream = float64(path.AggregateRate(totalStreams)) / float64(totalStreams)
	}
	s.countAccessors()
	for _, ch := range s.channels {
		if !s.channelLive(ch) {
			ch.rate = 0
			continue
		}
		rate := perStream * float64(ch.chunk.plan.Parallelism())
		n := s.acc[ch.serverIdx]
		for _, server := range s.sites {
			if r := diskShare(server, n); r < rate {
				rate = r
			}
		}
		if ch.coldLeft > 0 {
			rate *= 0.5
		}
		ch.rate = units.Rate(rate)
	}
}

// assignFiles hands queued files to idle channels.
func (s *simSession) assignFiles() {
	for _, ch := range s.channels {
		if !ch.hasFile && ch.gap <= 0 {
			s.takeFile(ch)
		}
	}
}

// takeFile gives an idle channel its chunk's next file. A channel whose
// chunk has drained first moves to the chunk NextChunk picks, if any;
// otherwise it stays idle and retires.
func (s *simSession) takeFile(ch *simChannel) {
	f, ok := ch.chunk.popFile()
	if !ok {
		next := NextChunk(s.plan, ch.chunk.idx, s.queued, s.bytesLeft)
		if next < 0 {
			return
		}
		ch.chunk = s.chunks[next]
		s.dirty = true
		if f, ok = ch.chunk.popFile(); !ok {
			return
		}
	}
	ch.hasFile = true
	ch.fileLeft = f
	s.dirty = true
}

// channelLive reports whether a channel is still part of the transfer
// (holding a file, paying a per-file gap, or with work left in its
// chunk) as opposed to retired.
func (s *simSession) channelLive(ch *simChannel) bool {
	return ch.hasFile || ch.gap > 0 || ch.chunk.hasQueuedFiles()
}

// countAccessors sets s.acc to how many live channels each site server
// has. A channel reads from the source server and writes to the
// destination server of the same index, so one count serves both sites.
func (s *simSession) countAccessors() {
	clear(s.acc)
	for _, ch := range s.channels {
		if s.channelLive(ch) {
			s.acc[ch.serverIdx]++
		}
	}
}

// diskShare returns the per-channel disk throughput on a server with n
// concurrent accessors.
func diskShare(server *endsys.Server, n int) float64 {
	if n <= 0 {
		return 0
	}
	return float64(server.Disk.AggregateRate(n)) / float64(n)
}

// advanceChannel walks a channel through dt of simulated time.
func (s *simSession) advanceChannel(ch *simChannel, dt time.Duration) {
	t := dt.Seconds()
	for t > 1e-12 {
		if ch.gap > 0 {
			g := ch.gap.Seconds()
			if g > t {
				ch.gap -= time.Duration(t * float64(time.Second))
				// t may round up to the whole gap.
				s.dirty = s.dirty || ch.gap <= 0
				return
			}
			t -= g
			ch.gap = 0
			s.dirty = true
			// The channel idled at a chunk boundary; it may pick up a
			// file now.
			if !ch.hasFile {
				s.takeFile(ch)
			}
			continue
		}
		if !ch.hasFile || ch.rate <= 0 {
			return
		}
		bytesBudget := float64(ch.rate) / 8 * t
		if bytesBudget >= ch.fileLeft {
			// Finish the file and pay the per-file gap (control-channel
			// RTT amortized by pipelining, plus un-hideable per-file
			// service overhead).
			t -= ch.fileLeft / (float64(ch.rate) / 8)
			s.consume(ch, ch.fileLeft)
			ch.fileLeft = 0
			ch.hasFile = false
			s.dirty = true
			q := ch.chunk.plan.Pipelining()
			ch.gap = s.sim.TB.Path.PerFileIdle(q) + s.sim.TB.PerFileOverhead
			continue
		}
		s.consume(ch, bytesBudget)
		ch.fileLeft -= bytesBudget
		return
	}
}

// consume books moved bytes against the channel's chunk and warms the
// connection.
func (s *simSession) consume(ch *simChannel, bytes float64) {
	s.movedF += bytes
	s.netEnergy += units.Joules(bytes * s.perByte)
	ch.chunk.bytesLeft -= bytes
	if ch.chunk.bytesLeft <= 0.5 {
		ch.chunk.bytesLeft = 0
		if !ch.chunk.completed {
			ch.chunk.completed = true
			ch.chunk.completedAt = s.now
		}
	}
	if ch.coldLeft > 0 {
		ch.coldLeft -= bytes
		s.dirty = s.dirty || ch.coldLeft <= 0
	}
}

// integratePower returns both sites' server power at the current rates
// and sets activeConc to the live channel count.
func (s *simSession) integratePower() units.Watts {
	clear(s.loads)
	live := 0
	for _, ch := range s.channels {
		if !s.channelLive(ch) {
			continue // retired channel
		}
		live++
		l := &s.loads[ch.serverIdx]
		l.procs++
		l.streams += ch.chunk.plan.Parallelism()
		if ch.hasFile {
			l.rate += float64(ch.rate)
		}
	}
	s.activeConc = live
	// A hosted service that spreads channels (Globus Online) keeps the
	// site's whole transfer-server pool engaged for the duration: every
	// pool server pays its base activity floor even when it currently
	// holds no channel. This is the mechanism behind GO's multi-server
	// energy premium (§3).
	pool := s.plan.SpreadServers && live > 0
	// Sum in server-index order: float addition is not associative, so
	// the order must be fixed for the energy totals to be identical from
	// run to run (the determinism contract of the parallel experiment
	// engine, DESIGN.md §6).
	var total units.Watts
	for i := range s.loads {
		l := &s.loads[i]
		if l.procs == 0 && !pool {
			continue // server takes no part in the transfer
		}
		for _, server := range s.sites {
			var u endsys.Utilization
			if l.procs == 0 && l.rate == 0 {
				u = endsys.Utilization{CPU: server.CPUBaseActive}.Clamp()
			} else {
				u = server.UtilizationFor(endsys.Load{
					Throughput: units.Rate(l.rate),
					Processes:  l.procs,
					Streams:    l.streams,
				})
			}
			total += s.sim.TB.Power.Power(u, l.procs)
		}
	}
	return total
}

var _ Executor = (*Sim)(nil)
var _ Session = (*simSession)(nil)
