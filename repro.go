// Package repro is the public API of the reproduction of "Taming
// Performance Variability caused by Client-Side Hardware Configuration"
// (Antoniou, Volos, Sazeides — IISWC 2024).
//
// The library simulates the paper's full testbed — client machines with
// configurable C-states, frequency scaling, turbo, SMT, uncore and tickless
// settings; workload generators following the paper's taxonomy; and the
// four benchmark services — and reproduces every figure and table of the
// paper's evaluation on top of it.
//
// # Quick start
//
//	scenario := repro.Scenario{
//	    Service: repro.ServiceMemcached,
//	    Label:   "LP",
//	    Client:  repro.LPClient(),
//	    Server:  repro.ServerBaseline(),
//	    RateQPS: 100_000,
//	    Runs:    10,
//	    Seed:    1,
//	}
//	result, err := repro.RunScenario(scenario)
//	fmt.Println(result.AvgCI) // median latency with non-parametric 95% CI
//
// # Parallel execution
//
// Scenario repetitions and figure sweeps fan out over a deterministic
// worker pool (package internal/sched). Set Scenario.Workers to run a
// scenario's repetitions concurrently and SweepOptions.Workers to run a
// sweep's grid concurrently (the cmd/repro and cmd/labsim binaries
// expose both as -parallel, defaulting to all CPUs). The guarantee in
// both cases: results are byte-identical for every worker count,
// including 1. Each repetition draws from its own labeled RNG stream and
// executes on a private environment, so a run's outcome is a pure
// function of (seed, scenario, run index); the scheduler merely changes
// the wall-clock order the independent runs are computed in, and its
// ordered collector reassembles results (and progress output) in run
// order. Pool is re-exported for callers that want the same machinery
// for their own experiment fan-out.
//
// # Environment pooling
//
// Parallel fan-out is resource-managed by the envpool layer
// (internal/envpool), carried by context:
//
//   - A global worker Budget is shared between the sweep (cell) and
//     scenario (run) levels, so nested fan-out is bounded by one
//     "-parallel N" rather than N². Sweeps create one per call;
//     RunScenarioContext picks one up from its context.
//   - A BackendPool leases prebuilt service backends keyed by (service,
//     server configuration): sweep cells that share a server config
//     reuse one preloaded instance instead of rebuilding per cell.
//   - The Memcached preload itself is a copy-on-write snapshot
//     (internal/kvstore): a frozen table of 100k value sizes indexed by
//     key rank, built straight from the preload's size draws. Concurrent
//     instances share it and overlay only the ranks a run writes; a run
//     reset retires the overlay in O(1).
//
// Use NewEnvContext to assemble the standard environment, then pass the
// context to RunScenarioContext or share a Budget/BackendPool across
// sweeps via SweepOptions. None of this affects results — leased
// backends are fully reset per run and the budget only schedules — so
// the byte-identical guarantee is unchanged.
//
// # Streaming measurement
//
// The measurement path itself is bounded-memory (internal/metrics).
// Every run's post-warmup samples flow through a metrics recorder in
// one of two modes, selected by Scenario.SampleMode:
//
//   - SampleExact retains every sample and reduces with the batch
//     estimators — the reference behaviour, byte-identical to the
//     historical retain-everything path.
//   - SampleStreaming reduces online in O(1) memory per run:
//     mean/variance/min/max via Welford's algorithm, P50/P90/P95/P99
//     via a log-bucketed histogram within a 1% relative error bound,
//     and a deterministic fixed-size reservoir subsample for
//     order-insensitive distributional tests such as Shapiro–Wilk
//     (the reservoir does not preserve arrival order; the §III
//     independence diagnostics operate on per-run sequences, which
//     streaming leaves untouched).
//   - SampleAuto (the default) picks streaming above a per-run sample
//     threshold (experiment.DefaultStreamingThreshold), so small runs
//     keep exact raw data and long runs keep flat memory.
//
// Streaming mode preserves the byte-identical parallelism guarantee:
// the reservoir draws from the run's own labeled stream, so results are
// still a pure function of (seed, scenario, run index).
//
// # Engine hot path
//
// Steady-state simulation is allocation-free (the engine-level complement
// to streaming measurement: metrics bound retained memory, pooling bounds
// allocation rate). The simulation engine (internal/sim) keeps event
// objects on a per-engine free list with generation-stamped IDs, and the
// whole request lifecycle — send timer, link delivery, tier job, response
// delivery, receive — dispatches through typed event sinks on pooled
// request objects instead of allocating closures. A generator reuses one
// engine and request free list across its runs. Net effect, measured on
// the synthetic reference path (BenchmarkRequestPathAllocs): ~15 → ~0.01
// heap allocations and ~2.0µs → ~1.1µs of host CPU per simulated request,
// which is what makes hour-long virtual runs and million-QPS scenarios
// affordable. Pooling is invisible to results: free lists are
// deterministic LIFO structures owned by a single-clocked engine, so the
// byte-identical guarantee above is unchanged. Profile the hot path with
// "make profile".
//
// # O(1) event scheduling
//
// Pending events live in a deterministic hierarchical timer wheel
// (internal/sim/wheel.go) instead of a binary min-heap: schedule, cancel
// and fire are O(1) amortized at any pending population, where the heap
// paid O(log n) with cache-hostile sift chains — the dominant engine
// term exactly at the scale the presets target, where in-flight requests
// × per-request timers keep 10⁴–10⁵ events pending. Measured
// (BenchmarkEnginePending, steady-state schedule+fire, 0 B/op both):
// ~195 → ~57 ns at 1k pending, ~304 → ~94 ns at 100k, ~420 → ~126 ns at
// 1M — flat for the wheel, growing for the heap. Firing order is exactly
// (deadline, seq), byte-identical to the heap; differential random
// schedules (internal/sim/wheel_test.go) and every figure golden pin it.
// Deep-horizon schedules (phase-program bursts, hour-long timers) that
// cascade whole buckets down the levels splice maximal same-slot runs
// with O(1) pointer moves instead of re-pushing events one by one
// (cascade hysteresis, wheel.go): ~1.6× on the dense-deep-horizon
// cascade benchmark with the firing order — and the 1k/100k-pending
// gates — unchanged (TestWheelCascadeHysteresisFaster).
// The Memcached request path is additionally allocation-free end to end:
// ETC keys are interned in a shared table (workload.ETCKeys), request
// bodies travel inline in pooled requests instead of boxed payloads, and
// the store is addressed by the key's rank with size-only lookups
// (kvstore.Fork.ValueSize, a slice index) — gated below 0.2
// allocs/request by TestMemcachedKVPathAllocFree.
//
// # Cluster layer
//
// Scenarios can run their backend as a replicated fleet
// (internal/cluster): set Scenario.Replicas and Scenario.Router to put
// N replicas — Memcached replicas fork the shared preload snapshot, so
// they are nearly free — behind a deterministic routing policy
// (RouterRoundRobin, RouterLeastOutstanding, or RouterConsistentHash,
// which hashes the KV key over a 64-vnode ring so hot ETC keys shard
// realistically), and optionally Scenario.Autoscale to drive the active
// replica count from a virtual-clock control loop on utilization or
// latency signals. Per-replica accounting (routed counts, queue depths,
// busy time, scale events) lands on RunMetrics.Cluster as a
// ClusterRunStats. The per-replica hot state is laid out
// structure-of-arrays (flat slices indexed by replica id — counts and
// outstanding in cluster.go, worker busy-bits as a bitmask in
// services.Tier) so routing picks and autoscaler utilization scans walk
// contiguous memory: both are allocation-free and a few tens of
// nanoseconds (BenchmarkClusterRoute, BenchmarkAutoscalerTick).
// Replication preserves every standing guarantee:
// routers and the autoscaler draw from labeled RNG streams, results are
// byte-identical for any worker count, and a single-replica scenario is
// byte-identical to the unreplicated path. Both CLIs expose the knobs
// as -replicas/-router.
//
// # Scale presets
//
// figures.Presets packages the scenarios this engine work unlocked as
// first-class sweeps: "million-qps" (Memcached to 1M QPS, 2× the paper's
// peak, 1M streamed samples per run), "cluster" (a four-replica
// Memcached fleet behind consistent hashing to 2M QPS offered, rendered
// as load-balance-skew and scale-out-latency tables), "sharded" (the
// cluster fleet with each run partitioned over 4 engines),
// "faulty-cluster" (the cluster fleet with a mid-run replica crash,
// client timeouts and bounded retries), and "hour-long" (one virtual
// hour per run at 100K QPS). Each preset is defined once, as the spec
// file examples/NAME.yaml, which package examples embeds and
// figures.Presets compiles on every call. Run them via "repro
// -experiment million-qps" or "labsim -preset hour-long";
// -runs/-samples scale them down (CI smokes them that way per commit,
// "make smoke-presets"). Cross-run aggregate distributions can be built
// without retaining per-run samples via the mergeable sketches
// (stats.LogHistogram.Merge, metrics.Streaming.Merge) within the same
// documented error bound.
//
// # Sharded runs
//
// One run can itself be partitioned across K simulation engines
// (Scenario.Shards, spec "shards:", -shards on both CLIs). Each client
// machine and each replica is a partition; partitions spread
// round-robin over K shards, each with its own timer wheel, event pool
// and labeled RNG streams, and cross-shard traffic crosses only at
// modelled network links. The link's hard minimum delay
// (netmodel.Config.MinDelay, a clamp — not a probabilistic bound) is
// the conservative lookahead: shards advance in epochs to the global
// minimum next deadline plus one lookahead, exchanging timestamped
// event batches through per-edge mailboxes at a barrier, so no shard
// ever receives an event in its past and every epoch makes progress
// (deadlock-free with no null-message traffic). Merged output is
// byte-identical to the single-engine run at any K and any -parallel:
// events fire in (deadline, origin, seq) order, and the sharded
// runtime replays deferred cross-shard events with their original
// schedule instants, reproducing the single engine's FIFO tie-breaks
// exactly (pinned by differential tests at the loadgen, preset and
// spec levels, plus figure goldens). Perf note: the win scales with
// events per epoch ≈ event rate × lookahead, so shard the high-rate
// replicated scenarios (the "sharded" preset's 250K–2M QPS sweep
// gates ≥2× at 4 shards on ≥4 cores); for low-rate or single-backend
// scenarios, repetition-level -parallel remains the better lever (both
// CLIs warn when -shards is requested on a single-backend topology).
// The per-epoch fixed cost is one fused sense-reversing barrier with
// adaptive spin-then-park waiting plus parity-buffered mailbox and
// clock-floor exchange — ~0.3 µs and zero allocations per epoch steady
// state (BenchmarkShardEpoch, TestShardEpochAllocFree); the low-rate
// break-even is tracked by BenchmarkShardedRunLowRate{1,4}.
//
// # Fault scenarios
//
// Scenarios can inject deterministic faults into a replicated fleet and
// arm the load generator's resilience stack against them
// (internal/faults, Scenario.Faults / Scenario.Resilience, spec
// "faults:" / "resilience:" / "hiccups:" sections, -timeout/-retries/
// -hedge on both CLIs). A FaultPlan is declarative: crash windows
// (a replica fails every queued and in-flight request, rejects new work,
// then restarts cold), degraded-replica straggler windows (service time
// scaled by a factor), link-degradation windows (delay multiplier and
// loss probability on the client-server link), and randomly drawn
// crash/restart churn from a labeled RNG stream (rate and mean downtime;
// drawn once at run start, so the schedule is a pure function of the
// seed). Windows are fractions of the run horizon, so one plan scales
// from CI smoke runs to hour-long sweeps. The client side mirrors
// production practice: per-request timeouts, bounded retries with
// exponential backoff and decorrelated jitter, and optional hedged
// requests that race a backup copy against a slow primary (hedges
// require the consistent-hash router, whose routing is a pure function
// the hedge can preview to avoid its primary). Outcomes land on
// RunMetrics.Resilience — availability, error rate, retry
// amplification, goodput, and the raw timeout/retry/hedge counters —
// and per-replica crash/downtime/straggler/hiccup accounting lands on
// RunMetrics.Cluster; the "faulty-cluster" preset renders both as
// availability and fault-timeline tables. Every standing guarantee
// holds under faults: fault events ride the virtual clock, retry and
// hedge timers draw no randomness outside labeled streams, and a
// faulty run is byte-identical at any -parallel and any -shards
// (differential-tested); the fault-free path stays allocation-free and
// byte-identical to prior releases — resilience state machines engage
// only when a timeout is configured.
//
// # Workload specs
//
// Scenarios can also be written as declarative files (internal/spec)
// instead of Go structs — the scenario front door for shapes the fixed
// presets don't cover. A spec is versioned YAML or JSON ("version: 1",
// parsed by a dependency-free YAML subset with strict unknown-field
// rejection) that composes the whole scenario: service, client and
// server presets, a rate sweep, replicas/router/autoscale, plus two
// layers only specs expose:
//
//   - classes: a traffic mix of client classes, each with a rate
//     fraction, an arrival process (poisson, fixed, gamma and weibull
//     bursty arrivals by cv/shape, or onoff session machines), and
//     optional per-class think-time and request-size distributions.
//   - phases: a rate program on the virtual clock (baseline →
//     intervention → recovery, or diurnal ramps via end_scale and
//     phases_repeat), scaling every class's rate in lock-step.
//
// The full schema is documented on package internal/spec, and
// examples/*.yaml contains a commented file per feature — including the
// scale presets themselves, whose spec files are their only
// definition. Both binaries accept "-spec file.yaml" ("repro -spec
// examples/phases-spike.yaml"; smoke knobs like -runs/-samples still
// apply, scenario-shape flags conflict and fail fast, through the flag
// validation both CLIs share in internal/cli). Programmatically:
// LoadSpec or ParseSpec, then WorkloadSpec.Scenario for a single-rate
// RunScenario (or figures.PresetFromSpec to run the full sweep the CLIs
// run). Specs compile onto the same deterministic machinery as
// everything above, so spec-driven scenarios keep the
// byte-identical-at-any-parallelism guarantee.
//
// The deeper layers are exposed as sub-packages under internal/ for the
// repository's own binaries, examples and tests; this package re-exports
// the stable surface.
package repro

import (
	"context"
	"runtime"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/envpool"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/figures"
	"repro/internal/hw"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/stats"
)

// Hardware configuration (paper §IV-C, Table II).
type (
	// HWConfig is a machine hardware configuration: C-states, frequency
	// driver/governor, turbo, SMT, uncore, tickless.
	HWConfig = hw.Config
	// CState describes one processor idle state.
	CState = hw.CState
)

// LPClient returns the paper's low-power (default, untuned) client
// configuration.
func LPClient() HWConfig { return hw.LPConfig() }

// HPClient returns the paper's high-performance (tuned) client
// configuration.
func HPClient() HWConfig { return hw.HPConfig() }

// ServerBaseline returns the paper's server-side baseline configuration.
func ServerBaseline() HWConfig { return hw.ServerBaselineConfig() }

// SkylakeCStates is the platform C-state table (C0/C1/C1E/C6).
func SkylakeCStates() []CState { return hw.SkylakeCStates }

// Experiments (paper §IV–§V).
type (
	// Scenario is one experimental configuration point: service, client
	// and server configuration, load, repetition count.
	Scenario = experiment.Scenario
	// Result is a scenario's outcome: per-run metrics plus the §III
	// statistics.
	Result = experiment.Result
	// RunMetrics is one repetition's reduced measurements.
	RunMetrics = experiment.RunMetrics
	// Service names a benchmark.
	Service = experiment.Service
	// SampleMode selects a run's measurement reduction: exact
	// (retain-everything), streaming (O(1) memory), or automatic.
	SampleMode = metrics.Mode
	// MetricSummary is one metric's reduced statistics (N, mean, stddev,
	// min/max, quantiles).
	MetricSummary = stats.Summary
)

// Sample modes for Scenario.SampleMode.
const (
	// SampleAuto picks streaming above DefaultStreamingThreshold
	// per-run samples, exact below.
	SampleAuto = metrics.SampleAuto
	// SampleExact retains every post-warmup sample.
	SampleExact = metrics.SampleExact
	// SampleStreaming reduces online in memory independent of run
	// length, with quantiles inside a documented 1% error bound.
	SampleStreaming = metrics.SampleStreaming
)

// DefaultStreamingThreshold is the per-run sample count above which
// SampleAuto switches to the streaming reduction.
const DefaultStreamingThreshold = experiment.DefaultStreamingThreshold

// The paper's four benchmarks.
const (
	ServiceMemcached = experiment.ServiceMemcached
	ServiceHDSearch  = experiment.ServiceHDSearch
	ServiceSocialNet = experiment.ServiceSocialNet
	ServiceSynthetic = experiment.ServiceSynthetic
)

// Cluster layer (replicated backends, routing policies, autoscaling).
type (
	// AutoscalerConfig bounds and tunes a scenario's replica control
	// loop (Scenario.Autoscale).
	AutoscalerConfig = cluster.AutoscalerConfig
	// ClusterRunStats is one run's replica-set accounting, carried on
	// RunMetrics.Cluster: per-replica routed counts and queue depths,
	// the active/capacity counts, and the autoscaler's decision log.
	ClusterRunStats = cluster.RunStats
	// ReplicaStats is one replica's share of a run.
	ReplicaStats = cluster.ReplicaStats
)

// Routing policies for Scenario.Router.
const (
	// RouterRoundRobin cycles replicas in order — the balance baseline.
	RouterRoundRobin = cluster.RouterRoundRobin
	// RouterLeastOutstanding picks the replica with the fewest requests
	// in flight.
	RouterLeastOutstanding = cluster.RouterLeastOutstanding
	// RouterConsistentHash hashes the KV key over a vnode ring, so hot
	// keys pin to replicas (and skew) realistically.
	RouterConsistentHash = cluster.RouterConsistentHash
)

// DefaultAutoscaler returns the default control-loop configuration
// scaling between min and max replicas on the utilization signal.
func DefaultAutoscaler(min, max int) AutoscalerConfig {
	return cluster.DefaultAutoscalerConfig(min, max)
}

// Fault injection and client resilience (Scenario.Faults,
// Scenario.Resilience).
type (
	// FaultPlan declares a scenario's fault timeline: crash, straggler
	// and link-degradation windows as fractions of the run horizon,
	// plus optional randomly drawn crash/restart churn.
	FaultPlan = faults.Plan
	// CrashWindow takes one replica down for a window of the run.
	CrashWindow = faults.CrashWindow
	// StragglerWindow scales one replica's service time for a window.
	StragglerWindow = faults.StragglerWindow
	// LinkWindow degrades the client-server link for a window: a delay
	// multiplier and a loss probability.
	LinkWindow = faults.LinkWindow
	// RandomCrashes draws crash/restart churn from a labeled RNG
	// stream at a given rate and mean downtime.
	RandomCrashes = faults.RandomCrashes
	// ResilienceConfig arms the load generator's client resilience
	// stack: per-request timeout, bounded retries with backoff and
	// decorrelated jitter, optional hedged requests.
	ResilienceConfig = loadgen.ResilienceConfig
	// ResilienceMetrics is one run's client-resilience outcome
	// (RunMetrics.Resilience): availability, error rate, retry
	// amplification, goodput, and the raw event counters.
	ResilienceMetrics = experiment.ResilienceMetrics
)

// RunScenario executes a scenario: N independent repetitions on a freshly
// reset environment, reduced with non-parametric statistics. Repetitions
// run Scenario.Workers wide with results identical for any worker count.
func RunScenario(s Scenario) (Result, error) { return experiment.Run(s) }

// RunScenarioContext is RunScenario under a context: cancellation stops
// the repetitions, and an envpool environment carried by the context
// (see NewEnvContext) supplies the worker budget and pooled backends.
func RunScenarioContext(ctx context.Context, s Scenario) (Result, error) {
	return experiment.RunContext(ctx, s)
}

// Parallel scheduling (deterministic fan-out).
type (
	// Pool is the deterministic worker pool experiments and sweeps
	// dispatch through; its Run method fans independent jobs out over
	// goroutines with sequential-identical results, emission order and
	// error selection.
	Pool = sched.Pool
	// JobError wraps a failed job's error with the job index it failed at.
	JobError = sched.JobError
	// Budget is the global worker budget bounding total concurrency
	// across nested fan-out levels; it records a high-water mark.
	Budget = sched.Budget
	// BackendPool caches prebuilt service backends for leasing by
	// (service, server-configuration) key.
	BackendPool = envpool.Pool
)

// DefaultWorkers returns the default fan-out width: one worker per
// available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// NewBudget returns a worker budget admitting n concurrent workers.
func NewBudget(n int) *Budget { return sched.NewBudget(n) }

// NewBackendPool returns an empty backend pool.
func NewBackendPool() *BackendPool { return envpool.New() }

// NewEnvContext returns a context carrying a fresh backend pool and a
// worker budget "workers" wide (0 or 1 = one worker, negative = all
// CPUs) — the standard environment for RunScenarioContext fan-out.
func NewEnvContext(parent context.Context, workers int) context.Context {
	return envpool.NewContext(parent, workers)
}

// Taxonomy, risk classification and recommendations (paper §II, Table III,
// §VI).
type (
	// GeneratorDesign places a workload generator in the paper's taxonomy
	// (loop model × pacing × point of measurement).
	GeneratorDesign = core.GeneratorDesign
	// Recommendation is client-configuration advice per §VI.
	Recommendation = core.Recommendation
	// ConclusionCheck compares a feature's measured effect under two
	// clients.
	ConclusionCheck = core.ConclusionCheck
)

// Taxonomy constants.
const (
	OpenLoop        = core.OpenLoop
	ClosedLoop      = core.ClosedLoop
	TimeSensitive   = core.TimeSensitive
	TimeInsensitive = core.TimeInsensitive
	InApp           = core.InApp
	KernelSocket    = core.KernelSocket
	NICHardware     = core.NICHardware
)

// Workload-generator building blocks, for assembling custom deployments
// beyond the paper's fixed scenarios.
type (
	// GeneratorConfig configures an open-loop generator deployment.
	GeneratorConfig = loadgen.Config
	// Generator drives a service from simulated client machines.
	Generator = loadgen.Generator
	// ClosedLoopConfig configures a finite-population (closed-loop)
	// generator.
	ClosedLoopConfig = loadgen.ClosedLoopConfig
	// ClosedLoopGenerator drives a service with blocking clients.
	ClosedLoopGenerator = loadgen.ClosedLoopGenerator
	// PayloadSource produces service-specific request payloads.
	PayloadSource = loadgen.PayloadSource
)

// ClassifyClient reports whether a client configuration is tuned (HP-like)
// or untuned (LP-like).
func ClassifyClient(cfg HWConfig) string { return core.ClassifyClient(cfg).String() }

// Recommend returns the paper's §VI configuration advice for a generator
// design.
func Recommend(design GeneratorDesign, targetKnown bool) Recommendation {
	return core.Recommend(design, targetKnown)
}

// CheckConclusions compares baseline/variant samples under two clients and
// reports whether they support conflicting conclusions (Finding 2).
func CheckConclusions(tunedBase, tunedVar, untunedBase, untunedVar []float64) (ConclusionCheck, error) {
	return core.CheckConclusions(tunedBase, tunedVar, untunedBase, untunedVar)
}

// Statistics (paper §III).
type (
	// Interval is a confidence interval.
	Interval = stats.Interval
	// ShapiroWilkResult is a normality-test outcome.
	ShapiroWilkResult = stats.ShapiroWilkResult
	// ConfirmResult is a CONFIRM repetition estimate.
	ConfirmResult = stats.ConfirmResult
)

// Median returns the sample median.
func Median(x []float64) float64 { return stats.Median(x) }

// Percentile returns the p-th percentile (p in [0,100]).
func Percentile(x []float64, p float64) float64 { return stats.Percentile(x, p) }

// NonParametricCI computes the paper's Eq. 1–2 distribution-free CI for
// the median.
func NonParametricCI(x []float64, confidence float64) (Interval, error) {
	return stats.NonParametricCI(x, confidence)
}

// ShapiroWilk tests normality (Royston's AS R94).
func ShapiroWilk(x []float64) (ShapiroWilkResult, error) { return stats.ShapiroWilk(x) }

// JainIterations estimates repetitions for a parametric CI (Eq. 3).
func JainIterations(x []float64, confidence, errPct float64) (int, error) {
	return stats.JainIterations(x, confidence, errPct)
}

// Confirm estimates repetitions with the non-parametric CONFIRM method.
func Confirm(x []float64, seed uint64) (ConfirmResult, error) {
	return stats.Confirm(x, stats.DefaultConfirmConfig(), rng.New(seed))
}

// Workload specs (declarative scenario files; see the package-doc
// section above and the schema reference on package internal/spec).
type (
	// WorkloadSpec is a parsed, validated scenario file: service,
	// client/server presets, rate sweep, replica shape, class mixes and
	// phase programs. Its Scenario method compiles it at one offered
	// rate for RunScenario.
	WorkloadSpec = spec.Spec
	// ClassSpec is one client class of a spec's traffic mix.
	ClassSpec = spec.ClassSpec
	// PhaseSpec is one phase of a spec's rate program.
	PhaseSpec = spec.PhaseSpec
)

// SpecVersion is the spec-format version this build reads (the file's
// required "version:" field).
const SpecVersion = spec.Version

// LoadSpec reads and validates a workload-spec file (YAML or JSON,
// decided by content). Errors name the offending line or field.
func LoadSpec(path string) (*WorkloadSpec, error) { return spec.Load(path) }

// ParseSpec parses and validates workload-spec bytes.
func ParseSpec(data []byte) (*WorkloadSpec, error) { return spec.Parse(data) }

// Figure regeneration (paper §V).
type (
	// SweepOptions size a figure regeneration.
	SweepOptions = figures.SweepOptions
	// Sweep holds a clients × server-variants × rates result grid.
	Sweep = figures.Sweep
)

// RunMemcachedStudy regenerates the data behind Figures 2, 3, 5a, 8, 9 and
// Table IV.
func RunMemcachedStudy(opts SweepOptions) (*Sweep, error) { return figures.RunMemcachedStudy(opts) }

// RenderFig2 renders the SMT study from a Memcached sweep.
func RenderFig2(sw *Sweep) string { return figures.Fig2(sw) }

// RenderFig3 renders the C1E study from a Memcached sweep.
func RenderFig3(sw *Sweep) string { return figures.Fig3(sw) }
