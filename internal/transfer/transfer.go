// Package transfer defines the contract between the energy-aware
// algorithms (internal/core) and the machinery that actually moves
// bytes. The algorithms only ever:
//
//   - inspect the environment (bandwidth, RTT, buffer, channel budget),
//   - submit a Plan: per-chunk pipelining/parallelism plus a channel
//     allocation and scheduling flags,
//   - sample throughput and energy over five-second windows,
//   - re-allocate channels mid-flight.
//
// Both the simulated executor (sim.go, used by the paper-reproduction
// experiments) and the real-TCP executor (internal/proto, used by the
// CLI and examples) implement this contract.
package transfer

import (
	"context"
	"fmt"
	"time"

	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/netem"
	"github.com/didclab/eta/internal/units"
)

// Environment is what an algorithm may know about the transfer setting
// before choosing parameters — exactly the inputs of Algorithms 1–3
// (bandwidth, RTT, TCP buffer size, the channel budget, and the site's
// server count).
type Environment struct {
	Path           netem.Path
	MaxChannels    int
	ServersPerSite int
}

// BDP returns the environment's bandwidth-delay product.
func (e Environment) BDP() units.Bytes { return e.Path.BDP() }

// BufferSize returns the maximum TCP buffer size, the "bufSize" of the
// paper's parallelism formula.
func (e Environment) BufferSize() units.Bytes { return e.Path.MaxTCPBuffer }

// ChunkPlan is one chunk with its chosen parameters and channel share.
type ChunkPlan struct {
	Chunk dataset.Chunk
	// Channels is the concurrency assigned to this chunk.
	Channels int
	// Weight drives mid-flight channel redistribution (HTEE's
	// log(size)·log(count) weights). Zero-weight chunks receive spare
	// channels last.
	Weight float64
	// AcceptRealloc marks whether this chunk may receive extra
	// channels freed by completed chunks. MinE pins its Large chunk to
	// a single channel "regardless of its weight", so Large gets false
	// there.
	AcceptRealloc bool
}

// Pipelining returns the chunk's pipelining depth (minimum 1).
func (cp ChunkPlan) Pipelining() int {
	if cp.Chunk.Pipelining < 1 {
		return 1
	}
	return cp.Chunk.Pipelining
}

// Parallelism returns the chunk's stream count per channel (minimum 1).
func (cp ChunkPlan) Parallelism() int {
	if cp.Chunk.Parallelism < 1 {
		return 1
	}
	return cp.Chunk.Parallelism
}

// Plan is a complete transfer submission.
type Plan struct {
	Chunks []ChunkPlan
	// Sequential transfers chunks one at a time (Single Chunk, Globus
	// Online, GUC) instead of simultaneously (ProMC, MinE, HTEE).
	Sequential bool
	// SpreadServers distributes channels round-robin across the site's
	// transfer servers the way Globus Online does; the custom client
	// "tries to initiate connections on a single end server" (§3).
	SpreadServers bool
	// ReallocOnComplete moves a finished chunk's channels to the
	// remaining chunks (the Multi-Chunk mechanism).
	ReallocOnComplete bool
}

// TotalChannels returns the sum of the per-chunk allocations.
func (p Plan) TotalChannels() int {
	total := 0
	for _, c := range p.Chunks {
		total += c.Channels
	}
	return total
}

// TotalBytes returns the plan's payload size.
func (p Plan) TotalBytes() units.Bytes {
	var total units.Bytes
	for _, c := range p.Chunks {
		total += c.Chunk.TotalSize()
	}
	return total
}

// Validate rejects structurally broken plans.
func (p Plan) Validate(env Environment) error {
	if len(p.Chunks) == 0 {
		return fmt.Errorf("transfer: empty plan")
	}
	for i, c := range p.Chunks {
		if c.Chunk.Count() == 0 {
			return fmt.Errorf("transfer: chunk %d (%v) has no files", i, c.Chunk.Class)
		}
		if c.Channels < 0 {
			return fmt.Errorf("transfer: chunk %d has negative channels", i)
		}
		if c.Weight < 0 {
			return fmt.Errorf("transfer: chunk %d has negative weight", i)
		}
	}
	if p.TotalChannels() == 0 {
		return fmt.Errorf("transfer: plan allocates no channels")
	}
	if env.MaxChannels > 0 && p.TotalChannels() > env.MaxChannels {
		return fmt.Errorf("transfer: plan allocates %d channels, budget is %d",
			p.TotalChannels(), env.MaxChannels)
	}
	return nil
}

// Sample is the measurement an adaptive algorithm sees after letting
// the transfer run for a window ("each concurrency level is executed
// for five second time intervals and then the power consumption and
// throughput of each interval are calculated", §2.4).
type Sample struct {
	Start    time.Duration
	Duration time.Duration
	Bytes    units.Bytes
	// Throughput is the window-average data rate.
	Throughput units.Rate
	// EndSystemEnergy is the window's end-system energy (both sites).
	EndSystemEnergy units.Joules
	// NetworkEnergy is the window's load-dependent network-device
	// energy along the path.
	NetworkEnergy units.Joules
	// ActiveChannels is the concurrency in effect during the window.
	ActiveChannels int
}

// Efficiency returns the window's throughput/energy ratio in Mbps per
// joule.
func (s Sample) Efficiency() float64 {
	if s.EndSystemEnergy <= 0 {
		return 0
	}
	return s.Throughput.Mbit() / float64(s.EndSystemEnergy)
}

// EfficiencyScore is the window-based estimator of the *whole-transfer*
// throughput/energy ratio that HTEE maximizes. The full-run ratio is
// thr/E = thr/(P·T) with T = bytes/thr, i.e. ∝ thr²/P; a fixed-length
// window's thr/energy only estimates thr/P and would systematically
// favour lower concurrency. Scoring windows by thr²/energy ranks
// operating points exactly as the final ratio does.
func (s Sample) EfficiencyScore() float64 {
	if s.EndSystemEnergy <= 0 {
		return 0
	}
	mb := s.Throughput.Mbit()
	return mb * mb / float64(s.EndSystemEnergy)
}

// ChunkReport is one chunk's completion record.
type ChunkReport struct {
	Class dataset.Class
	// Files and Bytes describe the chunk's workload.
	Files int
	Bytes units.Bytes
	// CompletedAt is when the chunk's last byte moved, relative to the
	// transfer start.
	CompletedAt time.Duration
	// InitialChannels is the concurrency the chunk started with.
	InitialChannels int
}

// Report summarizes a completed transfer.
type Report struct {
	Algorithm string
	Testbed   string

	Duration   time.Duration
	Bytes      units.Bytes
	Throughput units.Rate

	// Files counts files completed at the destination and Retries
	// counts retry-budget consumptions (failed GETs, re-dial attempts).
	// Filled by the real-TCP executor; simulated runs report per-chunk
	// completion in Chunks instead.
	Files   int64
	Retries int64

	EndSystemEnergy units.Joules
	NetworkEnergy   units.Joules
	AvgPower        units.Watts
	PeakPower       units.Watts

	// Samples is the five-second timeline (empty unless requested).
	Samples []Sample
	// Chunks records per-chunk completion (simulated runs).
	Chunks []ChunkReport
}

// Efficiency returns the whole-transfer throughput/energy ratio in
// Mbps per joule.
func (r Report) Efficiency() float64 {
	if r.EndSystemEnergy <= 0 {
		return 0
	}
	return r.Throughput.Mbit() / float64(r.EndSystemEnergy)
}

// TotalEnergy returns end-system plus network energy.
func (r Report) TotalEnergy() units.Joules {
	return r.EndSystemEnergy + r.NetworkEnergy
}

// String formats the headline numbers.
func (r Report) String() string {
	return fmt.Sprintf("%s on %s: %v in %v (%v), end-system %v, network %v",
		r.Algorithm, r.Testbed, r.Bytes, r.Duration.Round(time.Millisecond),
		r.Throughput, r.EndSystemEnergy, r.NetworkEnergy)
}

// Executor runs transfer plans.
type Executor interface {
	// Env describes the environment plans will run in.
	Env() Environment
	// Run executes the plan to completion.
	Run(ctx context.Context, plan Plan) (Report, error)
	// Start begins an adaptive transfer the caller steers via the
	// returned Session.
	Start(ctx context.Context, plan Plan) (Session, error)
}

// Session is a running transfer under algorithmic control.
type Session interface {
	// Advance lets the transfer proceed for (up to) d and returns the
	// window's sample. Advancing a finished transfer returns a
	// zero-duration sample.
	Advance(d time.Duration) (Sample, error)
	// SetTotalChannels redistributes a new total concurrency across
	// the unfinished chunks proportionally to their weights.
	SetTotalChannels(n int) error
	// SetAllocation pins an explicit per-chunk channel allocation
	// (indexes match the submitted plan's chunks).
	SetAllocation(channels []int) error
	// Done reports whether all bytes have been moved.
	Done() bool
	// Remaining returns the bytes still to move.
	Remaining() units.Bytes
	// Finish runs the transfer to completion with the current
	// settings and returns the final report.
	Finish() (Report, error)
}
