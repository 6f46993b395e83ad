package monitor

import (
	"sync"
	"time"

	"github.com/didclab/eta/internal/endsys"
	"github.com/didclab/eta/internal/obs"
	"github.com/didclab/eta/internal/obs/span"
	"github.com/didclab/eta/internal/power"
	"github.com/didclab/eta/internal/units"
)

// EnergySource reports cumulative transfer energy. The real-TCP
// executor samples it around measurement windows exactly like the
// simulator integrates its power model.
type EnergySource interface {
	// Total returns energy accumulated since the source was created.
	Total() (units.Joules, error)
}

// RAPLSource adapts hardware RAPL counters to EnergySource.
type RAPLSource struct {
	mu   sync.Mutex
	rapl *RAPL
}

// NewRAPLSource wraps an opened RAPL reader.
func NewRAPLSource(r *RAPL) *RAPLSource { return &RAPLSource{rapl: r} }

// Total implements EnergySource.
func (s *RAPLSource) Total() (units.Joules, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rapl.Total()
}

// ModelSource estimates transfer energy from procfs utilization through
// the paper's fine-grained power model — the path used on hosts without
// RAPL (or without permission to read it), mirroring how the paper
// estimates power on remote servers it cannot meter.
type ModelSource struct {
	mon    Monitor
	server endsys.Server
	model  power.FineGrained
	// Processes reports the live transfer process (channel) count for
	// Eq. 2; nil means 1.
	Processes func() int
	// Events, when set, receives an energy_model_sample event per
	// booked interval. Write-only: the estimate never depends on it.
	Events *obs.Log
	// Trace, when set, receives the cumulative total as an EnergySample
	// per booked interval, keeping span joules estimates current at the
	// model's own sampling cadence. Write-only, like Events.
	Trace *span.Tracer

	mu       sync.Mutex
	now      Clock
	lastTime time.Time
	lastCPU  CPUSample
	lastNet  NetSample
	lastDisk DiskSample
	primed   bool
	meter    power.Meter
}

// NewModelSource builds a model-based estimator for the local host
// described by server.
func NewModelSource(mon Monitor, server endsys.Server, model power.FineGrained) *ModelSource {
	return &ModelSource{mon: mon, server: server, model: model, now: time.Now}
}

// SetClock overrides the time source (tests).
func (s *ModelSource) SetClock(c Clock) { s.now = c }

// Total implements EnergySource: each call samples the counters,
// converts the deltas into component utilizations, books the interval's
// power into the meter and returns the running total.
func (s *ModelSource) Total() (units.Joules, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	cpu, err := s.mon.ReadCPU()
	if err != nil {
		return 0, err
	}
	net, err := s.mon.ReadNet("")
	if err != nil {
		return 0, err
	}
	disk, err := s.mon.ReadDisk()
	if err != nil {
		return 0, err
	}
	now := s.now()
	if s.primed {
		dt := now.Sub(s.lastTime)
		if dt > 0 {
			u := s.utilization(cpu, net, disk, dt)
			procs := 1
			if s.Processes != nil {
				procs = s.Processes()
			}
			w := s.model.Power(u, procs)
			s.meter.Add(w, dt)
			s.Trace.EnergySample(float64(s.meter.Total()))
			s.Events.Emit(obs.EvEnergyModel,
				"joules_total", float64(s.meter.Total()),
				"watts", float64(w),
				"cpu_pct", u.CPU,
				"nic_pct", u.NIC,
				"disk_pct", u.Disk,
				"interval_ms", float64(dt)/float64(time.Millisecond))
		}
	}
	s.lastTime = now
	s.lastCPU, s.lastNet, s.lastDisk = cpu, net, disk
	s.primed = true
	return s.meter.Total(), nil
}

func (s *ModelSource) utilization(cpu CPUSample, net NetSample, disk DiskSample, dt time.Duration) endsys.Utilization {
	u := endsys.Utilization{CPU: CPUUtil(s.lastCPU, cpu)}
	// NIC: moved bytes over line rate. Send and receive both load the
	// interface; use their max to avoid double-charging loopback runs.
	rx := float64(net.RxBytes) - float64(s.lastNet.RxBytes)
	tx := float64(net.TxBytes) - float64(s.lastNet.TxBytes)
	moved := rx
	if tx > moved {
		moved = tx
	}
	if s.server.NICRate > 0 {
		u.NIC = units.ClampF(moved*8/dt.Seconds()/float64(s.server.NICRate)*100, 0, 100)
	}
	sectors := (float64(disk.SectorsRead) - float64(s.lastDisk.SectorsRead)) +
		(float64(disk.SectorsWritten) - float64(s.lastDisk.SectorsWritten))
	if max := s.server.Disk.MaxRate(); max > 0 {
		u.Disk = units.ClampF(sectors*diskSectorBytes*8/dt.Seconds()/float64(max)*100, 0, 100)
	}
	u.Mem = units.ClampF(u.NIC*s.server.MemPerGbps/10, 0, 100)
	return u
}

// AutoSource picks RAPL when the host exposes it and falls back to the
// model estimator otherwise. The bool reports whether RAPL was used.
func AutoSource(mon Monitor, server endsys.Server, model power.FineGrained) (EnergySource, bool, error) {
	rapl, ok, err := OpenRAPL(mon)
	if err != nil {
		return nil, false, err
	}
	if ok {
		return NewRAPLSource(rapl), true, nil
	}
	return NewModelSource(mon, server, model), false, nil
}

// LocalPowerModel is the fine-grained power model (§2.2), Eq. 2's CPU
// curve plus memory, disk and NIC terms, that this host is booked with.
var LocalPowerModel = power.FineGrained{Coeff: power.Coefficients{
	CPU: power.PaperCPUQuad, Mem: 0.11, Disk: 0.08, NIC: 0.2,
}}

// LocalServerModel describes this host well enough for the model
// estimator: core count from the runtime, NIC and disk rates from the
// supplied hints.
func LocalServerModel(cores int, nic units.Rate, disk units.Rate) endsys.Server {
	if cores < 1 {
		cores = 1
	}
	if nic <= 0 {
		nic = 10 * units.Gbps
	}
	if disk <= 0 {
		disk = 2 * units.Gbps
	}
	return endsys.Server{
		Name:          "localhost",
		Cores:         cores,
		TDP:           95,
		NICRate:       nic,
		Disk:          endsys.Disk{Kind: endsys.SingleDisk, Rate: disk, ContentionAlpha: 0.1},
		CPUPerGbps:    5,
		CPUPerStream:  0.5,
		CPUBaseActive: 2,
		MemPerGbps:    4,
	}
}
