package hw

import (
	"fmt"
	"time"

	"repro/internal/rng"
	"repro/internal/sim"
)

// Machine is a simulated server-class machine: a set of hardware threads
// under one hardware Config, with socket-level state (dynamic uncore). The
// paper's testbed machines are 2-socket, 20-core, 40-thread Skylake systems
// (§IV-A); the experiments pin work to one socket, so a Machine models the
// sockets the workload actually touches.
type Machine struct {
	name string
	cfg  Config

	cores []*Core

	// Socket-level dynamic uncore state.
	idleCores      int
	allIdleSince   sim.Time
	uncoreParked   bool
	uncoreWakes    int
	wakeScale      float64 // per-run jitter on exit latencies
	freqScale      float64 // per-run jitter on effective frequency
	physicalCores  int
	recordIdleGaps bool
}

// SetRecordIdleGaps enables the per-core idle-gap diagnostic, which keeps
// every idle-period duration for offline analysis (e.g. explaining which
// C-states an arrival pattern induces).
func (m *Machine) SetRecordIdleGaps(on bool) { m.recordIdleGaps = on }

// AllIdleGaps concatenates the recorded idle gaps of all cores.
func (m *Machine) AllIdleGaps() []time.Duration {
	var out []time.Duration
	for _, c := range m.cores {
		out = append(out, c.idleGaps...)
	}
	return out
}

// NewMachine builds a machine with the given number of physical cores under
// cfg. With SMT enabled each physical core exposes two hardware threads
// (thread i and i+physical), matching Linux's enumeration on the testbed.
func NewMachine(name string, physicalCores int, cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if physicalCores < 1 {
		return nil, fmt.Errorf("hw: machine needs ≥1 core, got %d", physicalCores)
	}
	m := &Machine{
		name:          name,
		cfg:           cfg,
		wakeScale:     1,
		freqScale:     1,
		physicalCores: physicalCores,
	}
	threads := physicalCores
	if cfg.SMT {
		threads *= 2
	}
	m.cores = make([]*Core, threads)
	for i := range m.cores {
		m.cores[i] = &Core{
			machine:      m,
			id:           i,
			gov:          newIdleGovernor(cfg.MaxCState, !cfg.Tickless),
			idle:         true,
			stateIdx:     0, // boot in C0-poll until first sleep decision
			epochFreqGHz: cfg.MinFreqGHz,
		}
	}
	if cfg.SMT {
		for i := 0; i < physicalCores; i++ {
			m.cores[i].sibling = m.cores[i+physicalCores]
			m.cores[i+physicalCores].sibling = m.cores[i]
		}
	}
	m.idleCores = len(m.cores)
	return m, nil
}

// Name returns the machine's label.
func (m *Machine) Name() string { return m.name }

// Config returns the machine's hardware configuration.
func (m *Machine) Config() Config { return m.cfg }

// NumThreads returns the number of hardware threads.
func (m *Machine) NumThreads() int { return len(m.cores) }

// NumPhysicalCores returns the number of physical cores.
func (m *Machine) NumPhysicalCores() int { return m.physicalCores }

// Core returns hardware thread i.
func (m *Machine) Core(i int) *Core {
	return m.cores[i]
}

// ResetRun re-initializes all run-scoped state — C-state histories, busy
// schedules, statistics — and draws fresh per-run hardware jitter from the
// stream. This models the paper's methodology of resetting the environment
// between runs so that samples are independent (§III): each run starts from
// a cold, slightly different hardware state (thermal, calibration), which
// is what makes repeated runs vary at all.
func (m *Machine) ResetRun(stream *rng.Stream) {
	// Exit latencies vary run to run (board temperature, voltage-regulator
	// state, firmware calibration); effective frequency wobbles well under
	// 1%. The wake-latency spread is what makes untuned-client runs need
	// many repetitions at low load (Table IV's LP rows).
	m.wakeScale = stream.LogNormal(0, 0.20)
	m.freqScale = stream.Normal(1, 0.004)
	if m.freqScale < 0.97 {
		m.freqScale = 0.97
	}
	m.uncoreParked = false
	m.uncoreWakes = 0
	m.allIdleSince = 0
	m.idleCores = len(m.cores)
	for _, c := range m.cores {
		c.gov = newIdleGovernor(m.cfg.MaxCState, !m.cfg.Tickless)
		c.idle = true
		c.viaSleep = false
		c.stateIdx = 0
		c.idleSince = 0
		c.busyUntil = 0
		c.rampDone = 0
		c.wakeCount = [len(skylakeCStates)]int{}
		c.totalIdle = 0
		c.totalBusy = 0
		c.weightedPow = 0
		c.epochIdx = 0
		c.epochBusy = 0
		c.epochFreqGHz = m.cfg.MinFreqGHz
		c.loadEWMA = 0
		c.sleepMark = 0
		c.busySnapshot = 0
		c.idleGaps = nil
	}
}

// noteCoreIdle tracks socket idleness for the dynamic uncore model.
func (m *Machine) noteCoreIdle(now sim.Time) {
	m.idleCores++
	if m.idleCores == len(m.cores) {
		m.allIdleSince = now
	}
}

// noteCoreWake tracks socket wake-ups for the dynamic uncore model.
func (m *Machine) noteCoreWake(now sim.Time) {
	if m.idleCores == len(m.cores) && m.cfg.UncoreDynamic {
		// First core to wake clears a parked uncore.
		if now.Sub(m.allIdleSince) >= uncoreParkDelay {
			m.uncoreWakes++
		}
	}
	m.idleCores--
}

// uncoreWakePenalty returns the extra wake latency when the dynamic uncore
// has clocked down (the whole socket has been idle beyond the park delay).
func (m *Machine) uncoreWakePenalty(now sim.Time) time.Duration {
	if !m.cfg.UncoreDynamic {
		return 0
	}
	if m.idleCores == len(m.cores) && now.Sub(m.allIdleSince) >= uncoreParkDelay {
		return time.Duration(float64(uncoreWakeLatency) * m.wakeScale)
	}
	return 0
}

// UncoreRXPenalty returns the extra NIC-to-LLC delivery latency paid on
// every network receive when the uncore frequency is dynamic: a
// down-clocked uncore slows the DMA and cache-injection path (this is why
// latency tuning guides pin the uncore, as the paper's HP and server
// configurations do via MSR 0x620).
func (m *Machine) UncoreRXPenalty() time.Duration {
	if !m.cfg.UncoreDynamic {
		return 0
	}
	return time.Duration(6e3 * m.wakeScale) // ≈6µs
}

// EnergyProxy returns a unitless energy figure over a run of the given
// length: full power for every core-second, minus the savings earned in
// recorded C-state residencies. A core that busy-polls (idle=poll, or a
// spinning generator) records no sleep and therefore saves nothing — the
// LP/HP trade-off the paper discusses (§VI): LP saves energy, HP buys
// timing accuracy with it.
func (m *Machine) EnergyProxy(runLength time.Duration) float64 {
	full := runLength.Seconds() * float64(len(m.cores))
	saved := 0.0
	for _, c := range m.cores {
		saved += c.totalIdle.Seconds() - c.weightedPow // idle × (1 − relPower)
	}
	e := full - saved
	if e < 0 {
		e = 0
	}
	return e
}

// IdleDistribution aggregates per-C-state wake counts across cores.
func (m *Machine) IdleDistribution() map[string]int {
	out := make(map[string]int)
	for _, c := range m.cores {
		c.addWakeCounts(out)
	}
	return out
}
