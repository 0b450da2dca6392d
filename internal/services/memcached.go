package services

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/kvstore"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Memcached cost-model constants, calibrated so the mean per-request worker
// occupancy lands at the ~10 µs server-side processing time the paper cites
// for Memcached ([4], [7]).
const (
	memcachedGetBase = 6500 * time.Nanosecond
	memcachedSetBase = 8200 * time.Nanosecond
	memcachedMissAdj = -1500 * time.Nanosecond // misses skip value copy-out
	memcachedPerByte = 4.0                     // ns per value byte (copy+serialize)
	memcachedSigma   = 0.28                    // per-request lognormal sigma
)

// Memcached is the paper's primary benchmark: a key-value cache instance
// with 10 worker threads pinned on a single socket, serving the ETC
// workload. Operations execute against a real key-value store; the
// request's worker occupancy is derived from the operation's actual
// outcome (hit, miss, value size).
//
// The store is a copy-on-write fork of a preload snapshot shared by every
// instance with the same workload parameters: the ETC key space is
// preloaded once per process as a frozen table of value sizes indexed
// by key rank, each instance overlays its own writes, and a run reset
// drops the overlay. That keeps run isolation — SETs overwrite preloaded
// values and a GET's cost depends on the stored value's size, so runs
// must each observe the pristine store (§III) — while N concurrent sweep
// cells cost one preload instead of N. Requests address the store by
// their key's rank (workload.KVRequest.Rank); a rank outside the key
// space is a GET miss.
type Memcached struct {
	machine *hw.Machine
	tier    *Tier
	store   *kvstore.Fork
	etcCfg  workload.ETCConfig
}

// preloadSnapshots caches the frozen preloaded key space per workload
// configuration. Preloading is deterministic — a fixed labeled stream
// drives the value-size draws — so instances sharing a configuration
// would build identical tables; they fork one snapshot instead.
var (
	preloadMu        sync.Mutex
	preloadSnapshots = map[workload.ETCConfig]*kvstore.Snapshot{}
)

// preloadSnapshot returns the shared frozen preload for etcCfg, building
// it on first use from one value-size draw per rank, in rank order. The
// lock is held across the build so concurrent constructors wait for one
// preload rather than racing to duplicate it.
func preloadSnapshot(etcCfg workload.ETCConfig) (*kvstore.Snapshot, error) {
	preloadMu.Lock()
	defer preloadMu.Unlock()
	if sn, ok := preloadSnapshots[etcCfg]; ok {
		return sn, nil
	}
	etc, err := workload.NewETC(etcCfg, rng.NewLabeled(12345, "memcached-preload"))
	if err != nil {
		return nil, err
	}
	sn, err := kvstore.NewSnapshot(etcCfg.Keys, func(int) int { return etc.ValueSize() })
	if err != nil {
		return nil, err
	}
	preloadSnapshots[etcCfg] = sn
	return sn, nil
}

// MemcachedConfig configures the instance.
type MemcachedConfig struct {
	// ServerHW is the server machine configuration (Table II baseline,
	// with SMT/C1E variants applied by the experiments).
	ServerHW hw.Config
	// Workers is the worker-thread count (paper: 10).
	Workers int
	// Keys is the preloaded key-space size.
	Keys int
	// HiccupRate / HiccupMean tune the background-interference model
	// (zero values keep the calibrated defaults).
	HiccupRate float64
	HiccupMean time.Duration
}

// DefaultMemcachedConfig mirrors the paper's deployment.
func DefaultMemcachedConfig() MemcachedConfig {
	return MemcachedConfig{ServerHW: hw.ServerBaselineConfig(), Workers: 10, Keys: 100_000}
}

// NewMemcached builds and preloads the service.
func NewMemcached(cfg MemcachedConfig) (*Memcached, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("services: memcached needs ≥1 worker, got %d", cfg.Workers)
	}
	if cfg.Keys < 1 {
		return nil, fmt.Errorf("services: memcached needs ≥1 key, got %d", cfg.Keys)
	}
	machine, err := hw.NewMachine("memcached-server", cfg.Workers, cfg.ServerHW)
	if err != nil {
		return nil, err
	}
	cores := make([]int, cfg.Workers)
	for i := range cores {
		cores[i] = i // one worker per physical core; SMT siblings stay free
	}
	tier, err := NewTier(TierConfig{Name: "memcached", Machine: machine, Cores: cores, Hiccups: true, Contention: 0.065,
		HiccupRatePerSec: cfg.HiccupRate, HiccupMeanDuration: cfg.HiccupMean,
		TailJitterProb: 0.015, TailJitterMean: 40 * time.Microsecond})
	if err != nil {
		return nil, err
	}
	m := &Memcached{machine: machine, tier: tier}
	m.etcCfg = workload.DefaultETCConfig()
	m.etcCfg.Keys = cfg.Keys

	// Fork the shared preload: the full key space with ETC-distributed
	// value sizes (so GETs hit realistically), frozen once per process.
	sn, err := preloadSnapshot(m.etcCfg)
	if err != nil {
		return nil, err
	}
	m.store = sn.Fork()
	return m, nil
}

// Name implements Backend.
func (m *Memcached) Name() string { return "memcached" }

// Machines implements Backend.
func (m *Memcached) Machines() []*hw.Machine { return []*hw.Machine{m.machine} }

// MeanServiceTime implements Backend: the GET base cost plus the
// copy-out of a mean-sized ETC value plus the network-stack share —
// ≈9.6 µs under the SMT-off server baseline, matching the ~10 µs
// server-side processing time the paper cites.
func (m *Memcached) MeanServiceTime() float64 {
	meanCopyOut := time.Duration(m.etcCfg.MeanValueSize() * memcachedPerByte) // ns per byte
	return (memcachedGetBase + meanCopyOut + m.tier.StackCost()).Seconds()
}

// ETCConfig returns the workload parameters matching the preloaded store.
func (m *Memcached) ETCConfig() workload.ETCConfig { return m.etcCfg }

// Store exposes the instance's copy-on-write store view for examples and
// diagnostics.
func (m *Memcached) Store() *kvstore.Fork { return m.store }

// ResetRun implements Backend. Dropping the overlay discards every key
// the previous run wrote, so each run observes the identical pristine
// store regardless of which runs executed before it (or concurrently on
// other generators' forks of the same snapshot).
func (m *Memcached) ResetRun(engine *sim.Engine, stream *rng.Stream) {
	m.tier.ResetRun(engine, stream.Split())
	m.store.Reset()
}

// StartRun implements Backend.
func (m *Memcached) StartRun(end sim.Time) { m.tier.StartRun(end) }

// Arrive implements Backend: the request payload must be a
// workload.KVRequest — carried inline in Request.KV on the
// allocation-free path (Request.HasKV set), or boxed in Request.Payload
// by older drivers.
func (m *Memcached) Arrive(req *Request, now sim.Time) {
	var kv workload.KVRequest
	if req.HasKV {
		kv = req.KV
	} else {
		var ok bool
		kv, ok = req.Payload.(workload.KVRequest)
		if !ok {
			panic(fmt.Sprintf("services: memcached got payload %T", req.Payload))
		}
	}
	req.ServerArrive = now

	// Execute the real operation to determine outcome and response size.
	// A GET's cost depends only on the stored value's size, so the store
	// keeps sizes, addressed by the key's rank.
	var cost time.Duration
	switch kv.Op {
	case workload.OpGet:
		if size, ok := m.store.ValueSize(kv.Rank); ok {
			cost = memcachedGetBase + time.Duration(float64(size)*memcachedPerByte)
			req.ResponseBytes = 24 + size
		} else {
			cost = memcachedGetBase + memcachedMissAdj
			req.ResponseBytes = 24 // miss response header
		}
	case workload.OpSet:
		if err := m.store.Set(kv.Rank, kv.ValueSize); err != nil {
			panic(fmt.Sprintf("services: memcached preloaded store rejected set: %v", err))
		}
		cost = memcachedSetBase + time.Duration(float64(kv.ValueSize)*memcachedPerByte)
		req.ResponseBytes = 8
	default:
		panic(fmt.Sprintf("services: unknown op %v", kv.Op))
	}

	cost = time.Duration(float64(cost)*m.tier.Noise(memcachedSigma)) + m.tier.StackCost() + m.tier.TailJitter()
	// Memcached binds each connection to one worker thread (libevent).
	m.tier.SubmitConn(now, req.Conn, cost, req, m)
}

// JobDone implements JobSink: memcached is single-stage, so the worker's
// completion is the response departure.
func (m *Memcached) JobDone(end sim.Time, req *Request) { req.complete(end) }

// Crash implements Crasher.
func (m *Memcached) Crash(now sim.Time) { m.tier.Crash(now) }

// Restart implements Crasher.
func (m *Memcached) Restart(now sim.Time) { m.tier.Restart(now) }

// SetDegrade implements Degrader.
func (m *Memcached) SetDegrade(d *faults.DegradeSchedule) { m.tier.SetDegrade(d) }

// QueueStats exposes tier diagnostics.
func (m *Memcached) QueueStats() (completed uint64, maxDepth int) {
	return m.tier.Completed(), m.tier.MaxQueueDepth()
}

// TierStats implements TierStatsProvider.
func (m *Memcached) TierStats() []TierStats { return []TierStats{m.tier.Stats()} }

// Occupancy implements OccupancyProvider (allocation-free tick sampling).
func (m *Memcached) Occupancy() (time.Duration, int) { return m.tier.BusyTime(), m.tier.Workers() }
