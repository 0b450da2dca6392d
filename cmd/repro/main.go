// Command repro regenerates every table and figure of the paper's
// evaluation from the testbed simulation.
//
// Usage:
//
//	repro [-experiment all|table1|table2|table3|fig2|fig3|fig4|fig5|fig6|fig7|fig8|fig9|table4]
//	      [-runs N] [-samples N] [-seed N] [-parallel N] [-samplemode auto|exact|streaming] [-v]
//
// With -experiment all (the default) the Memcached study is computed once
// and shared by Figures 2, 3, 5, 8, 9 and Table IV, exactly as the paper
// derives them from the same 42 configurations.
//
// Beyond the paper's sweeps, -experiment also accepts the large-scale
// presets the engine work unlocked (timer-wheel O(1) scheduling,
// streaming measurement, pooled request lifecycle):
//
//	million-qps     Memcached load sweep to 1M QPS, 1M streamed samples/run
//	cluster         Replicated Memcached fleet behind consistent hashing
//	sharded         The cluster sweep with each run split over 4 engines
//	faulty-cluster  The cluster fleet with a mid-run replica crash,
//	                client timeouts and bounded retries
//	hour-long       Memcached at 100K QPS for one virtual hour per run
//
// Each preset is the spec file examples/NAME.yaml; -help lists the
// registry.
//
// Presets are excluded from -experiment all (they are full-size by
// design); -runs and -samples scale them down, which is how CI smokes
// them: repro -experiment million-qps -runs 1 -samples 2000.
//
// -shards partitions every run's simulation across N conservatively-
// synchronized engines (send-time routing requires the consistent-hash
// router on clustered shapes); output stays byte-identical to -shards 1
// — only wall-clock changes.
//
// -replicas and -router run any experiment's backend as a replica set
// behind a routing policy (round-robin, least-outstanding,
// consistent-hash); clustered preset output adds the load-balance-skew
// and scale-out-latency tables. The defaults keep the single-backend
// path, whose output is unchanged.
//
// Experiments fan out on a global budget of -parallel workers (default:
// all CPUs), shared between sweep cells and the repetitions inside each
// cell, so total concurrency never exceeds -parallel. All studies of one
// invocation also share one backend pool: a sweep cell leases a prebuilt
// service instance whenever a previous cell with the same server
// configuration has finished with one. Output is byte-identical for any
// -parallel value: every scenario and run draws from its own labeled RNG
// stream, and the scheduler collects results and progress lines in grid
// order.
//
// -spec runs a declarative workload spec (package internal/spec; YAML or
// JSON) as a sweep instead of a named experiment — client classes,
// bursty arrival processes and phase programs included:
//
//	repro -spec examples/phases-spike.yaml -runs 1 -samples 2000
//
// -spec and -experiment are mutually exclusive (the spec names its own
// sweep); -runs/-samples/-replicas/-router still scale and reshape a
// spec the way they do a preset. Flag combinations are validated before
// any work starts (package internal/cli, shared with labsim): an unknown
// router, a negative -runs or -samples, or -router without -replicas
// (and without a clustered preset or spec), fails in milliseconds
// instead of after a sweep.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/cli"
	"repro/internal/envpool"
	"repro/internal/figures"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// specOwnedFlags are the flags a -spec file replaces: it names its own
// sweep.
var specOwnedFlags = []string{"experiment"}

func main() {
	var f cli.Flags
	exp := flag.String("experiment", "all", "which table/figure to regenerate, or a scale preset ("+cli.PresetNames(", ")+")")
	flag.StringVar(&f.Spec, "spec", "", "run a workload spec file (YAML or JSON) as a sweep; mutually exclusive with -experiment")
	flag.IntVar(&f.Runs, "runs", 0, "repetitions per configuration (0 = paper defaults: 50, or 20 for the synthetic study)")
	flag.IntVar(&f.Samples, "samples", 0, "post-warmup samples per run (0 = per-service default)")
	seed := flag.Uint64("seed", 2024, "experiment seed (same seed ⇒ identical output)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent sweep cells (output is identical for any value)")
	sampleMode := flag.String("samplemode", "auto", "per-run sample reduction: auto|exact|streaming (streaming runs in O(1) memory per run)")
	f.Register(flag.CommandLine)
	verbose := flag.Bool("v", false, "print per-scenario progress to stderr")
	flag.Parse()
	f.Parsed(flag.CommandLine)

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}

	mode, err := metrics.ParseMode(*sampleMode)
	if err != nil {
		fail(err)
	}
	name := strings.ToLower(*exp)
	base, err := cli.Base(f.Spec, name)
	if err != nil {
		fail(err)
	}
	if err := f.Check(base, specOwnedFlags); err != nil {
		fail(err)
	}
	if w := f.ShardWarning(base); w != "" {
		fmt.Fprintln(os.Stderr, "repro:", w)
	}

	opts := f.Options()
	opts.Seed, opts.Workers, opts.SampleMode = *seed, *parallel, mode
	// One worker budget and one backend pool span every study of this
	// invocation, so -parallel bounds the whole regeneration and backends
	// are reused across figures, not just within one sweep.
	opts.Budget = sched.NewBudget(sched.Resolve(*parallel))
	opts.Backends = envpool.New()
	if *verbose {
		opts.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}

	if f.Spec != "" {
		if err := runPreset(*base, opts); err != nil {
			fail(err)
		}
		return
	}
	if err := run(name, opts); err != nil {
		fail(err)
	}
}

func run(exp string, opts figures.SweepOptions) error {
	var (
		memcachedStudy *figures.Sweep
		hdsearchStudy  *figures.Sweep
	)
	memcached := func() (*figures.Sweep, error) {
		if memcachedStudy == nil {
			var err error
			memcachedStudy, err = figures.RunMemcachedStudy(opts)
			if err != nil {
				return nil, err
			}
		}
		return memcachedStudy, nil
	}
	hdsearch := func() (*figures.Sweep, error) {
		if hdsearchStudy == nil {
			var err error
			hdsearchStudy, err = figures.RunHDSearchStudy(opts)
			if err != nil {
				return nil, err
			}
		}
		return hdsearchStudy, nil
	}

	want := func(name string) bool { return exp == "all" || exp == name }
	matched := false

	if want("table1") {
		matched = true
		fmt.Println(figures.TableI().Render())
	}
	if want("table2") {
		matched = true
		fmt.Println(figures.TableII().Render())
	}
	if want("table3") {
		matched = true
		fmt.Println(figures.TableIII().Render())
	}
	if want("recommendations") {
		matched = true
		fmt.Println(figures.RecommendationsTable().Render())
	}
	if want("fig2") {
		matched = true
		sw, err := memcached()
		if err != nil {
			return err
		}
		fmt.Println(figures.Fig2(sw))
	}
	if want("fig3") {
		matched = true
		sw, err := memcached()
		if err != nil {
			return err
		}
		fmt.Println(figures.Fig3(sw))
	}
	if want("fig4") {
		matched = true
		sw, err := hdsearch()
		if err != nil {
			return err
		}
		fmt.Println(figures.Fig4(sw))
	}
	if want("fig5") {
		matched = true
		m, err := memcached()
		if err != nil {
			return err
		}
		h, err := hdsearch()
		if err != nil {
			return err
		}
		fmt.Println(figures.Fig5(m, h))
	}
	if want("fig6") {
		matched = true
		sw, err := figures.RunSocialNetStudy(opts)
		if err != nil {
			return err
		}
		fmt.Println(figures.Fig6(sw))
	}
	if want("fig7") {
		matched = true
		sw, err := figures.RunSyntheticStudy(opts)
		if err != nil {
			return err
		}
		fmt.Println(figures.Fig7(sw))
	}
	if want("fig8") {
		matched = true
		sw, err := memcached()
		if err != nil {
			return err
		}
		fmt.Println(figures.Fig8(sw))
	}
	if want("fig9") {
		matched = true
		sw, err := memcached()
		if err != nil {
			return err
		}
		// The paper's Figure 9 shows HP-SMToff at 400K QPS (index 5).
		out, err := figures.Fig9(sw, "HP", "SMToff", 5)
		if err != nil {
			return err
		}
		fmt.Println(out)
	}
	if want("table4") {
		matched = true
		sw, err := memcached()
		if err != nil {
			return err
		}
		fmt.Println(figures.TableIV(sw, opts.Seed).Render())
	}
	if p, ok := figures.PresetByName(exp); ok {
		matched = true
		if err := runPreset(p, opts); err != nil {
			return err
		}
	}
	if !matched {
		return fmt.Errorf("unknown experiment %q (want all, table1-4, fig2-9, recommendations, or a preset:\n%s)", exp, figures.PresetUsage())
	}
	return nil
}

// runPreset executes and prints one preset sweep — built-in or compiled
// from a -spec file, which share this path end to end.
func runPreset(p figures.Preset, opts figures.SweepOptions) error {
	pr, err := figures.RunPreset(p, opts)
	if err != nil {
		return err
	}
	fmt.Println(pr.Render())
	if pr.Clustered() {
		fmt.Println()
		fmt.Println(pr.LoadBalanceTable())
		fmt.Println()
		fmt.Println(pr.ScaleOutTable())
	}
	if pr.Faulty() {
		fmt.Println()
		fmt.Println(pr.AvailabilityTable())
		fmt.Println()
		fmt.Println(pr.FaultTimelineTable())
	}
	return nil
}
