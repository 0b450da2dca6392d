package hw

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Timing constants the paper quotes for the client-side overhead chain
// (§V-A): "a query must experience at least a C-state transition
// (2us - 200us), a DVFS transition (~30us), and a context switch (~25us)
// before the workload generator is able to capture the timestamp".
const (
	// DVFSRampLatency is the legacy DVFS transition time: after a wake
	// under a powersave governor the core runs at minimum frequency for
	// this long before reaching full speed (Gendler et al. [15]).
	DVFSRampLatency = 30 * time.Microsecond

	// CtxSwitchCost is the scheduler cost to run a blocked thread after
	// its wake-up event (IRQ) arrives.
	CtxSwitchCost = 25 * time.Microsecond

	// IRQDeliveryCost is the interrupt delivery and softirq dispatch cost
	// paid on every network receive regardless of sleep state.
	IRQDeliveryCost = 1 * time.Microsecond

	// tickPeriod is the scheduling-clock interval on non-tickless kernels
	// (CONFIG_HZ=250, Ubuntu's default).
	tickPeriod = 4 * time.Millisecond

	// smtPenalty stretches work executed while the SMT sibling thread is
	// simultaneously busy: two hardware threads sharing a physical core
	// each run slower than a thread owning the core outright.
	smtPenalty = 1.25

	// pstateEpoch is the interval at which a powersave governor re-evaluates
	// the core's P-state from its recent utilization.
	pstateEpoch = 10 * time.Millisecond

	// pstateTargetUtil is the utilization at which powersave grants full
	// frequency; below it the frequency scales down proportionally.
	pstateTargetUtil = 0.70

	// uncoreParkDelay is how long a socket must be fully idle before a
	// dynamic uncore clocks down.
	uncoreParkDelay = 200 * time.Microsecond

	// uncoreWakeLatency is the extra first-wake cost when the uncore has
	// clocked down.
	uncoreWakeLatency = 15 * time.Microsecond
)

// Core is one hardware thread of a simulated machine. It is a state machine
// over virtual time: busy until a known instant, or idle in a C-state. The
// zero Core is not usable; obtain cores from a Machine.
type Core struct {
	machine *Machine
	id      int
	sibling *Core // SMT sibling thread, nil when SMT is off

	gov  *idleGovernor
	idle bool
	// viaSleep distinguishes a real governor-chosen idle (entered through
	// Sleep) from the initial boot idle, which must not pollute the
	// governor's history or the wake statistics.
	viaSleep bool
	// stateIdx indexes SkylakeCStates: the C-state currently occupied
	// while idle.
	stateIdx int
	// idleSince is when the core last went idle.
	idleSince sim.Time
	// busyUntil is the end of the latest scheduled work.
	busyUntil sim.Time
	// rampDone is when the DVFS ramp after the last wake completes; work
	// before this instant runs at minimum frequency under powersave.
	rampDone sim.Time
	// P-state epoch tracking (powersave governor): the operating frequency
	// for the current epoch is derived from the previous epoch's busy
	// fraction, modelling intel_pstate's utilization-driven selection.
	epochIdx     int64
	epochBusy    time.Duration
	epochFreqGHz float64

	// Recent-load tracking for the menu governor's performance multiplier:
	// an EWMA of the busy fraction over successive sleep-to-sleep cycles.
	loadEWMA     float64
	sleepMark    sim.Time
	busySnapshot time.Duration

	// Statistics.
	wakeCount   [len(skylakeCStates)]int // wakes by C-state index
	totalIdle   time.Duration
	totalBusy   time.Duration
	weightedPow float64 // idle time × relative power, for energy reports
	idleGaps    []time.Duration
}

// IdleGaps returns the recorded idle-period durations when the machine's
// idle-gap diagnostic is enabled.
func (c *Core) IdleGaps() []time.Duration { return c.idleGaps }

// ID returns the hardware thread index within its machine.
func (c *Core) ID() int { return c.id }

// Idle reports whether the core is currently idle.
func (c *Core) Idle() bool { return c.idle }

// CurrentCState returns the occupied idle state name ("C0" when busy).
func (c *Core) CurrentCState() string {
	if !c.idle {
		return "C0"
	}
	return skylakeCStates[c.stateIdx].Name
}

// BusyUntil returns the completion instant of the core's latest work.
func (c *Core) BusyUntil() sim.Time { return c.busyUntil }

// WakeCounts returns per-C-state wake counts accumulated since the last
// run reset, keyed by state name and holding only the states woken from
// at least once. The map is built on each call.
func (c *Core) WakeCounts() map[string]int {
	out := make(map[string]int)
	c.addWakeCounts(out)
	return out
}

// addWakeCounts adds the core's non-zero wake counts into out by state
// name.
func (c *Core) addWakeCounts(out map[string]int) {
	for i, n := range c.wakeCount {
		if n != 0 {
			out[skylakeCStates[i].Name] += n
		}
	}
}

// nextTickIn returns the distance to the next periodic tick, or 0 on
// tickless kernels.
func (c *Core) nextTickIn(now sim.Time) time.Duration {
	if c.machine.cfg.Tickless {
		return 0
	}
	elapsed := time.Duration(now) % tickPeriod
	return tickPeriod - elapsed
}

// Sleep marks the core idle at now. timerHint is the time until the next
// known deadline for this core (0 when unknown); a block-wait workload
// generator passes the distance to its next scheduled send, mirroring the
// timer the kernel's menu governor consults.
func (c *Core) Sleep(now sim.Time, timerHint time.Duration) {
	if c.idle {
		return
	}
	if now < c.busyUntil {
		panic(fmt.Sprintf("hw: core %d put to sleep at %v while busy until %v", c.id, now, c.busyUntil))
	}
	// Update the recent-load estimate over the completed sleep-to-sleep
	// cycle before choosing the next state.
	if cycle := now.Sub(c.sleepMark); cycle > 0 {
		busy := c.totalBusy - c.busySnapshot
		load := float64(busy) / float64(cycle)
		if load > 1 {
			load = 1
		}
		c.loadEWMA = 0.7*c.loadEWMA + 0.3*load
	}
	c.sleepMark = now
	c.busySnapshot = c.totalBusy

	c.idle = true
	c.viaSleep = true
	c.idleSince = now
	c.stateIdx = c.gov.choose(timerHint, c.nextTickIn(now), c.loadEWMA)
	c.machine.noteCoreIdle(now)
}

// WakeLatency returns the cost of bringing the core to C0 at now without
// performing the wake: the C-state exit latency, scaled by the per-run
// hardware jitter, plus the uncore ramp when a dynamic uncore has parked.
// A busy or polling core wakes for free.
func (c *Core) WakeLatency(now sim.Time) time.Duration {
	if !c.idle {
		return 0
	}
	lat := time.Duration(float64(skylakeCStates[c.stateIdx].ExitLatency) * c.machine.wakeScale)
	lat += c.machine.uncoreWakePenalty(now)
	return lat
}

// Wake transitions an idle core to C0 at now and returns the instant the
// core is usable (now + exit latency). Waking a busy core returns
// max(now, busyUntil).
func (c *Core) Wake(now sim.Time) sim.Time {
	if !c.idle {
		if c.busyUntil > now {
			return c.busyUntil
		}
		return now
	}
	idleDur := now.Sub(c.idleSince)
	if c.viaSleep {
		c.gov.record(idleDur)
		c.totalIdle += idleDur
		c.weightedPow += idleDur.Seconds() * skylakeCStates[c.stateIdx].RelativePower
		c.wakeCount[c.stateIdx]++
		if c.machine.recordIdleGaps {
			c.idleGaps = append(c.idleGaps, idleDur)
		}
		c.viaSleep = false
	}

	lat := c.WakeLatency(now)
	c.machine.noteCoreWake(now)
	c.idle = false
	ready := now.Add(lat)
	c.busyUntil = ready

	// Under a powersave governor the core restarts at minimum frequency
	// and ramps; under performance it is already at full speed. A wake
	// from C0 (poll) keeps the frequency hot.
	if c.machine.cfg.Governor == GovernorPowersave && c.stateIdx != 0 {
		c.rampDone = ready.Add(time.Duration(float64(DVFSRampLatency) * c.machine.wakeScale))
	} else {
		c.rampDone = ready
	}
	return ready
}

// rollEpoch advances the P-state epoch to the one containing t, deriving
// the new operating frequency from the last epoch's busy fraction. Skipped
// (fully idle) epochs drop the frequency to minimum.
func (c *Core) rollEpoch(t sim.Time) {
	if c.machine.cfg.Governor != GovernorPowersave {
		return
	}
	idx := int64(t) / int64(pstateEpoch)
	if idx == c.epochIdx {
		return
	}
	cfg := c.machine.cfg
	// Attribute accumulated busy time across the epochs elapsed since the
	// last roll (a single long execution may span several epochs).
	span := time.Duration(idx-c.epochIdx) * pstateEpoch
	util := float64(c.epochBusy) / float64(span)
	if util > 1 {
		util = 1
	}
	frac := util / pstateTargetUtil
	if frac > 1 {
		frac = 1
	}
	// powersave scales within [min, nominal]; it grants turbo only under
	// sustained near-saturation, unlike the performance governor.
	ceiling := cfg.NominalFreqGHz
	if cfg.Turbo && util > 0.9 {
		ceiling = cfg.TurboFreqGHz
	}
	c.epochFreqGHz = cfg.MinFreqGHz + (ceiling-cfg.MinFreqGHz)*frac
	c.epochIdx = idx
	c.epochBusy = 0
}

// speedAt returns the execution speed multiplier (relative to nominal
// frequency) at instant t.
func (c *Core) speedAt(t sim.Time) float64 {
	cfg := c.machine.cfg
	var ghz float64
	switch {
	case t < c.rampDone:
		ghz = cfg.MinFreqGHz
	case cfg.Governor == GovernorPowersave:
		ghz = c.epochFreqGHz
	default:
		ghz = cfg.MaxFreqGHz()
	}
	return ghz / cfg.NominalFreqGHz * c.machine.freqScale
}

// Execute schedules work of the given nominal duration (its cost at
// nominal frequency with an idle sibling) starting at start. The core must
// be awake and free by start. It returns the completion time, stretching
// the work across the DVFS ramp and applying the SMT contention penalty
// when the sibling thread is busy over the same span.
func (c *Core) Execute(start sim.Time, nominal time.Duration) sim.Time {
	if c.idle {
		panic(fmt.Sprintf("hw: Execute on sleeping core %d at %v", c.id, start))
	}
	if start < c.busyUntil {
		start = c.busyUntil
	}
	c.rollEpoch(start)
	remaining := nominal
	if c.sibling != nil && !c.sibling.idle && c.sibling.busyUntil > start {
		remaining = time.Duration(float64(remaining) * smtPenalty)
	}

	t := start
	// Portion executed during the post-wake ramp at minimum frequency.
	if t < c.rampDone {
		slowSpeed := c.speedAt(t)
		window := c.rampDone.Sub(t)
		capacity := time.Duration(float64(window) * slowSpeed)
		if remaining <= capacity {
			t = t.Add(time.Duration(float64(remaining) / slowSpeed))
			remaining = 0
		} else {
			remaining -= capacity
			t = c.rampDone
		}
	}
	if remaining > 0 {
		t = t.Add(time.Duration(float64(remaining) / c.speedAt(t)))
	}
	c.totalBusy += t.Sub(start)
	c.epochBusy += t.Sub(start)
	c.busyUntil = t
	return t
}

// Utilization returns the busy fraction of the elapsed (busy+idle
// accounted) time since the last run reset.
func (c *Core) Utilization() float64 {
	total := c.totalBusy + c.totalIdle
	if total == 0 {
		return 0
	}
	return float64(c.totalBusy) / float64(total)
}
