package main

import (
	"context"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/figures"
	"repro/internal/hw"
	"repro/internal/loadgen"
	"repro/internal/metrics"
)

// A workload is one fixed study the benchmark times. Its pass is the
// unit of timing: the same seed always gives the same simulated output,
// so the number of passes a run fits in its time budget changes only the
// precision of the timings, never the digest.
type workload struct {
	name string
	// scenarios lists the study's configurations; a sweep workload
	// lists one scenario per distinct (server, client) pair, which is
	// every backend and machine-set key the sweep leases.
	scenarios func(seed uint64) []experiment.Scenario
	// sweep, when set, runs the timed pass through the figures sweep
	// instead of the scenario list.
	sweep *sweepSpec
}

// sweepSpec is a reduced paper study run through figures.RunServiceSweep
// and rendered with the paper's figure and table renderers.
type sweepSpec struct {
	service  experiment.Service
	variants []experiment.ServerVariant
	rates    []float64
	runs     int
	samples  int
}

// sized returns the sweep at the given size; smoke size keeps one rate.
func (sp *sweepSpec) sized(sz size) sweepSpec {
	out := *sp
	if sz == smoke {
		out.rates, out.samples = sp.rates[:1], 200
	}
	return out
}

// workers is every workload's repetition concurrency. With one worker
// the pool's build count is a property of the workload alone; with more,
// how many backends a key needs at once depends on goroutine timing, so
// a timed pass could build and set-up time would leak into it.
const workers = 1

var baseline = hw.ServerBaselineConfig()

func memcachedVariants() []experiment.ServerVariant {
	return []experiment.ServerVariant{
		experiment.SMTVariants()[0], // SMToff, also the C1Eoff baseline
		experiment.SMTVariants()[1], // SMTon
		experiment.C1EVariants()[1], // C1Eon
	}
}

var workloadList = []workload{
	{
		name: "paper-sweep",
		sweep: &sweepSpec{
			service:  experiment.ServiceMemcached,
			variants: memcachedVariants(),
			rates:    []float64{50_000, 200_000, 400_000},
			runs:     3,
			samples:  1_000,
		},
		scenarios: func(seed uint64) []experiment.Scenario {
			var out []experiment.Scenario
			for _, cl := range []struct {
				name string
				cfg  hw.Config
			}{{"LP", hw.LPConfig()}, {"HP", hw.HPConfig()}} {
				for _, v := range memcachedVariants() {
					out = append(out, experiment.Scenario{
						Service: experiment.ServiceMemcached, Label: cl.name + "-" + v.Name,
						Client: cl.cfg, Server: v.Cfg, RateQPS: 50_000, Runs: 1, Seed: seed,
					})
				}
			}
			return out
		},
	},
	{
		name: "mc-steady",
		scenarios: func(seed uint64) []experiment.Scenario {
			return []experiment.Scenario{{
				Service: experiment.ServiceMemcached, Label: "LP-SMToff",
				Client: hw.LPConfig(), Server: baseline, RateQPS: 400_000,
				Runs: 4, TargetSamples: 100_000, Seed: seed,
				SampleMode: metrics.SampleStreaming,
			}}
		},
	},
	{
		name: "fleet-faults",
		scenarios: func(seed uint64) []experiment.Scenario {
			return []experiment.Scenario{{
				Service: experiment.ServiceMemcached, Label: "HP-fleet",
				Client: hw.HPConfig(), Server: baseline, RateQPS: 750_000,
				Runs: 3, TargetSamples: 150_000, Seed: seed,
				Replicas: 4, Router: cluster.RouterConsistentHash,
				Faults: &faults.Plan{Crashes: []faults.CrashWindow{{Replica: 1, Start: 0.35, End: 0.65}}},
				Resilience: &loadgen.ResilienceConfig{
					Timeout: 2 * time.Millisecond, Retries: 2,
					RetryBase: 200 * time.Microsecond, RetryCap: 2 * time.Millisecond,
				},
			}}
		},
	},
	{
		name: "hdsearch",
		scenarios: func(seed uint64) []experiment.Scenario {
			return []experiment.Scenario{{
				Service: experiment.ServiceHDSearch, Label: "LP-SMToff",
				Client: hw.LPConfig(), Server: baseline, RateQPS: 2_000,
				Runs: 4, TargetSamples: 500, Seed: seed,
			}}
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// size scales a pass. The full size is what the benchmark measures;
// smoke size keeps the benchmark's own tests fast.
type size int

const (
	full size = iota
	smoke
)

// passOutput is everything a pass simulated and rendered.
type passOutput struct {
	results []experiment.Result
	text    string // rendered figures and tables (sweep workloads)
}

// plan returns the scenarios a timed pass of a scenario-list workload
// runs at the given size.
func (w workload) plan(seed uint64, sz size) []experiment.Scenario {
	scens := w.scenarios(seed)
	if sz == smoke {
		for i := range scens {
			scens[i].Runs = 2
			scens[i].TargetSamples = max(scens[i].TargetSamples/50, 50)
		}
	}
	return scens
}

// repetitions is how many repetitions one timed pass runs.
func (w workload) repetitions(sz size) int {
	if w.sweep != nil {
		sp := w.sweep.sized(sz)
		return 2 * len(sp.variants) * len(sp.rates) * sp.runs // LP and HP clients
	}
	n := 0
	for _, s := range w.plan(0, sz) {
		n += s.Runs
	}
	return n
}

// timedPass runs the workload's study once under env. Its "run" phase
// is the part that simulates requests.
func (w workload) timedPass(env *env, seed uint64, sz size) (passOutput, error) {
	if w.sweep != nil {
		return w.sweepPass(env, seed, sz)
	}
	scens := w.plan(seed, sz)
	var out passOutput
	err := env.phase("run", func(ctx context.Context) error {
		for _, s := range scens {
			s.Workers = workers
			res, err := experiment.RunContext(ctx, s)
			if err != nil {
				return err
			}
			out.results = append(out.results, res)
		}
		return nil
	})
	return out, err
}

func (w workload) sweepPass(env *env, seed uint64, sz size) (passOutput, error) {
	sp := w.sweep.sized(sz)
	var sw *figures.Sweep
	err := env.phase("run", func(context.Context) error {
		var err error
		sw, err = figures.RunServiceSweep(sp.service, sp.variants, sp.rates, figures.SweepOptions{
			Runs: sp.runs, TargetSamples: sp.samples, Seed: seed,
			Workers: workers, Budget: env.budget, Backends: env.pool,
		})
		return err
	})
	if err != nil {
		return passOutput{}, err
	}
	var table *figures.Table
	_ = env.phase("reduce", func(context.Context) error {
		table = figures.TableIV(sw, seed)
		return nil
	})
	var out passOutput
	_ = env.phase("render", func(context.Context) error {
		out.text = figures.Fig2(sw) + figures.Fig3(sw) + figures.Fig8(sw) + table.Render()
		return nil
	})
	for _, cl := range sw.Clients {
		for _, v := range sw.Variants {
			out.results = append(out.results, sw.Results[cl][v]...)
		}
	}
	return out, nil
}

// warmupPass runs every scenario the workload leases backends and
// machines for, one short repetition each, so that a pass on an empty
// pool pays every build the timed passes would otherwise pay.
func (w workload) warmupPass(env *env, seed uint64) error {
	return env.phase("setup", func(ctx context.Context) error {
		for _, s := range w.scenarios(seed) {
			s.Runs, s.TargetSamples, s.Workers = 1, 50, workers
			if _, err := experiment.RunContext(ctx, s); err != nil {
				return err
			}
		}
		return nil
	})
}
