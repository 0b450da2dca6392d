// Command labsim runs a single experiment scenario with every knob exposed,
// printing per-run measurements and the §III statistics — the tool to use
// when exploring a configuration outside the paper's fixed sweeps.
//
// Example: evaluate Memcached at 300K QPS through an LP client whose
// deepest C-state is C1E, against an SMT-enabled server:
//
//	labsim -service memcached -rate 300000 -client LP -client-max-cstate C1E \
//	       -server-smt -runs 20
//
// Repetitions execute -parallel wide (default: all CPUs) under an
// envpool environment — a global worker budget plus a backend pool —
// with results byte-identical for any value, including 1.
//
// -replicas and -router run the backend as a replica set behind a
// routing policy (round-robin, least-outstanding, consistent-hash);
// per-replica routed counts and the load-balance skew print after the
// run statistics. The defaults keep the single-backend path unchanged.
//
// -shards partitions every run's simulation across N conservatively-
// synchronized engines; results are byte-identical to -shards 1, only
// wall-clock changes. Clustered shapes need the consistent-hash router
// (routing is decided at send time on the sharded path).
//
// -timeout arms the client resilience stack: requests that outlive the
// timeout are abandoned and, with -retries, resent with exponential
// backoff and decorrelated jitter; -hedge sends a backup copy to a
// different replica when the first attempt is slow. Per-run availability,
// retry amplification and the per-replica fault timeline print after the
// cluster stats whenever the scenario injects faults or enables
// resilience.
//
// -preset loads a large-scale scenario (million-qps, cluster, sharded,
// faulty-cluster, hour-long; each is the spec file examples/NAME.yaml)
// as the flag defaults: service, client, server, rate, run count,
// sample target and replica shape come from the preset (million-qps
// uses its peak rate), and any flag set explicitly on the command line
// still wins — so
//
//	labsim -preset million-qps -runs 1 -samples 2000
//
// is the smoke-sized version CI runs, and
//
//	labsim -preset hour-long
//
// is a full one-virtual-hour-per-run measurement (streaming reduction
// keeps its memory flat regardless of the 360M samples per run).
//
// -spec runs a declarative workload spec (package internal/spec) at its
// peak rate: class mixes, bursty arrivals and phase programs come from
// the file. The spec owns the scenario shape, so -preset and the
// shape flags (-service, -client*, -server-*, -delay, -replicas,
// -router, -shards) conflict with it; the smoke knobs (-rate, -runs, -samples,
// -seed, -parallel, -samplemode, -point) still apply:
//
//	labsim -spec examples/onoff-sessions.yaml -runs 2 -samples 2000
//
// All flag combinations — including an unknown router, -router without
// -replicas, or a negative -runs or -samples — are validated before any
// simulation starts, by the checks repro shares (package internal/cli).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/envpool"
	"repro/internal/experiment"
	"repro/internal/figures"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// specOwnedFlags are the scenario-shape flags a workload spec defines
// itself; setting one alongside -spec is a conflict, not an override.
var specOwnedFlags = []string{
	"preset", "service", "client", "client-max-cstate", "client-governor",
	"client-turbo", "server-smt", "server-c1e", "delay", "replicas", "router",
	"shards",
}

func main() {
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "labsim:", err)
		os.Exit(1)
	}
	sc, err := parse(os.Args[1:])
	if err != nil {
		fail(err)
	}
	ctx := envpool.NewContext(context.Background(), sc.Workers)
	res, err := experiment.RunContext(ctx, sc)
	if err != nil {
		fail(err)
	}

	fmt.Printf("service=%s rate=%.0f client=%s server=%s runs=%d\n\n",
		sc.Service, sc.RateQPS, sc.Client.Name, sc.Server.Name, sc.Runs)
	fmt.Printf("%-5s %12s %12s %10s %10s %10s\n", "run", "avg(µs)", "p99(µs)", "samples", "sendlag", "clientC6")
	for i, r := range res.Runs {
		fmt.Printf("%-5d %12.2f %12.2f %10d %10.2f %10d\n", i, r.AvgUs, r.P99Us, r.Samples, r.SendLagUs, r.ClientC6)
	}
	fmt.Println()
	fmt.Printf("avg : median %s  stddev %.2fµs\n", res.AvgCI, res.StdDevAvgUs)
	fmt.Printf("p99 : median %s\n", res.P99CI)

	if sw, err := stats.ShapiroWilk(res.PerRunAvgUs); err == nil {
		fmt.Printf("Shapiro–Wilk: W=%.4f p=%.4g (normal at 5%%: %v)\n", sw.W, sw.PValue, sw.Normal(0.05))
	}
	if n, err := stats.JainIterations(res.PerRunAvgUs, 0.95, 1); err == nil {
		fmt.Printf("Jain iterations for 1%% error @95%%: %d\n", n)
	}
	if acf, err := stats.Autocorrelation(res.PerRunAvgUs, 1); err == nil {
		fmt.Printf("lag-1 autocorrelation of runs: %.3f\n", acf)
	}

	if len(res.Runs) > 0 && res.Runs[0].Cluster != nil {
		fmt.Printf("\ncluster (%s router):\n", res.Runs[0].Cluster.Router)
		for i, r := range res.Runs {
			st := r.Cluster
			fmt.Printf("run %-3d active=%d/%d skew=%.3f scale-events=%d routed=[",
				i, st.Active, st.Capacity, st.Skew(), len(st.ScaleEvents))
			for ri, rep := range st.Replicas {
				if ri > 0 {
					fmt.Print(" ")
				}
				fmt.Printf("%d", rep.Routed)
			}
			fmt.Println("]")
		}
	}

	if len(res.Runs) > 0 && res.Runs[0].Resilience != nil {
		fmt.Println("\nresilience:")
		for i, r := range res.Runs {
			m := r.Resilience
			fmt.Printf("run %-3d avail=%7.3f%% amp=%.3f timeouts=%d retries=%d hedges=%d hedge-wins=%d failed=%d exhausted=%d late=%d goodput=%.0f\n",
				i, m.Availability*100, m.RetryAmplification, m.Stats.Timeouts, m.Stats.Retries,
				m.Stats.Hedges, m.Stats.HedgeWins, m.Stats.Failed, m.Stats.Exhausted,
				m.Stats.LateDrops, m.GoodputQPS)
		}
	}

	if len(res.Runs) > 0 && res.Runs[0].Cluster != nil && (!sc.Faults.Empty() || sc.HiccupRate > 0) {
		fmt.Println("\nfault timeline (summed over runs):")
		reps := len(res.Runs[0].Cluster.Replicas)
		for ri := 0; ri < reps; ri++ {
			var crashes int
			var down, straggle, hictime time.Duration
			var failed, hiccups uint64
			for _, r := range res.Runs {
				if ri >= len(r.Cluster.Replicas) {
					continue
				}
				rep := r.Cluster.Replicas[ri]
				crashes += rep.CrashWindows
				down += rep.DownTime
				failed += rep.CrashFailed
				straggle += rep.StragglerTime
				hiccups += rep.HiccupCount
				hictime += rep.HiccupTime
			}
			fmt.Printf("replica %-3d crashes=%d downtime=%v failed=%d straggle=%v hiccups=%d hiccup-time=%v\n",
				ri, crashes, down, failed, straggle, hiccups, hictime)
		}
	}
}

// parse resolves a labsim command line into the scenario to run. The
// base is the -spec file, the -preset, or none; explicitly set shape
// flags override a preset's values (a spec owns its shape), and the
// shared flags apply through figures.PresetScenario like every sweep.
func parse(args []string) (experiment.Scenario, error) {
	var f cli.Flags
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	preset := fs.String("preset", "", "load a scale preset's defaults: "+cli.PresetNames("|")+" (explicit flags still win)")
	fs.StringVar(&f.Spec, "spec", "", "run a workload spec file (YAML or JSON); conflicts with -preset and the scenario-shape flags")
	service := fs.String("service", "memcached", "memcached|hdsearch|socialnet|synthetic")
	rate := fs.Float64("rate", 100_000, "offered load in QPS")
	clientName := fs.String("client", "LP", "client preset: LP or HP")
	maxCState := fs.String("client-max-cstate", "", "override client deepest C-state (C0,C1,C1E,C6)")
	governor := fs.String("client-governor", "", "override client governor (powersave|performance)")
	turbo := fs.Bool("client-turbo", true, "client turbo mode")
	serverSMT := fs.Bool("server-smt", false, "enable SMT on the server")
	serverC1E := fs.Bool("server-c1e", false, "enable C1E on the server")
	delay := fs.Duration("delay", 0, "synthetic service added busy-wait")
	point := fs.String("point", "in-app", "measurement point: in-app|kernel-socket|nic")
	fs.IntVar(&f.Runs, "runs", 10, "repetitions")
	fs.IntVar(&f.Samples, "samples", 0, "post-warmup samples per run (0 = default)")
	seed := fs.Uint64("seed", 1, "experiment seed")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "concurrent repetitions (results are identical for any value)")
	sampleMode := fs.String("samplemode", "auto", "per-run sample reduction: auto|exact|streaming")
	f.Register(fs)
	_ = fs.Parse(args) // ExitOnError: a bad command line exits here
	f.Parsed(fs)

	var sc experiment.Scenario
	base, err := cli.Base(f.Spec, *preset)
	if err != nil {
		return sc, err
	}
	if base == nil && *preset != "" {
		return sc, fmt.Errorf("unknown preset %q; available:\n%s", *preset, figures.PresetUsage())
	}
	mode, err := metrics.ParseMode(*sampleMode)
	if err != nil {
		return sc, err
	}
	var mp core.MeasurementPoint
	switch *point {
	case "in-app":
		mp = core.InApp
	case "kernel-socket":
		mp = core.KernelSocket
	case "nic":
		mp = core.NICHardware
	default:
		return sc, fmt.Errorf("unknown measurement point %q", *point)
	}

	p, qps := figures.Preset{Server: hw.ServerBaselineConfig()}, *rate
	if base != nil {
		p = *base
		if !f.Set["rate"] {
			qps = p.Rates[len(p.Rates)-1] // the preset's or spec's peak rate
		}
		if !f.Set["runs"] {
			f.Runs = 0 // the base's run count, not the flag default
		}
	}
	if f.Spec == "" {
		wins := func(name string) bool { return base == nil || f.Set[name] }
		if wins("service") {
			p.Service = experiment.Service(*service)
		}
		if wins("client") {
			p.ClientName = *clientName
		}
		if wins("delay") {
			p.SynthDelay = *delay
		}
		if *serverSMT {
			p.Server = p.Server.WithSMT(true)
		}
		if *serverC1E {
			p.Server = p.Server.WithMaxCState("C1E")
		}
		if p.Client, err = clientConfig(p.ClientName, *maxCState, *governor, *turbo); err != nil {
			return sc, err
		}
	}
	if err := f.Check(&p, specOwnedFlags); err != nil {
		return sc, err
	}
	if w := f.ShardWarning(&p); w != "" {
		fmt.Fprintln(os.Stderr, "labsim:", w)
	}

	opts := f.Options()
	opts.Seed, opts.SampleMode = *seed, mode
	sc = figures.PresetScenario(p, qps, opts)
	if f.Spec == "" {
		// The label keys every run's RNG streams. Flag- and preset-built
		// labsim runs use the bare client name, which keeps their results
		// stable; a spec keeps the sweeps' "<client>-<name>".
		sc.Label = p.ClientName
	}
	sc.Point, sc.Workers = mp, *parallel
	return sc, nil
}

func clientConfig(preset, maxCState, governor string, turbo bool) (hw.Config, error) {
	var cfg hw.Config
	switch preset {
	case "LP":
		cfg = hw.LPConfig()
	case "HP":
		cfg = hw.HPConfig()
	default:
		return cfg, fmt.Errorf("unknown client preset %q (want LP or HP)", preset)
	}
	if maxCState != "" {
		cfg.MaxCState = maxCState
	}
	switch governor {
	case "":
	case "powersave":
		cfg.Governor = hw.GovernorPowersave
	case "performance":
		cfg.Governor = hw.GovernorPerformance
	default:
		return cfg, fmt.Errorf("unknown governor %q", governor)
	}
	cfg.Turbo = turbo
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}
