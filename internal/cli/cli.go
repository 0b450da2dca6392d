// Package cli is the front door both command-line tools share: it
// resolves the preset an invocation sweeps, defines the cluster and
// resilience flags, validates every flag combination before any
// simulation starts, and applies the flags as overrides through
// figures.PresetScenario — the same path the sweeps run.
package cli

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/figures"
	"repro/internal/spec"
)

// Flags are the flag values both CLIs share. A zero value keeps the
// base preset's or spec's value; Set records which flags the command
// line gave explicitly.
type Flags struct {
	Set      map[string]bool
	Spec     string
	Runs     int
	Samples  int
	Replicas int
	Router   string
	Shards   int
	Timeout  time.Duration
	Retries  int
	Hedge    time.Duration
}

// Register defines the cluster-shape and resilience flags on fs. Each
// CLI defines -spec, -runs and -samples itself, bound to f's fields.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.IntVar(&f.Replicas, "replicas", 0, "run each backend as N replicas behind -router (0 = preset/spec shape, else a single backend)")
	fs.StringVar(&f.Router, "router", "", "replica routing policy: round-robin|least-outstanding|consistent-hash")
	fs.IntVar(&f.Shards, "shards", 0, "partition each run across N simulation engines (0 = preset/spec shape, else one engine; output identical for any value)")
	fs.DurationVar(&f.Timeout, "timeout", 0, "per-request client timeout enabling the resilience stack (0 = preset/spec shape)")
	fs.IntVar(&f.Retries, "retries", 0, "bounded retry budget per request; requires -timeout or a resilient preset/spec (0 = preset/spec shape)")
	fs.DurationVar(&f.Hedge, "hedge", 0, "hedged-request delay, must be below the timeout; requires -timeout or a resilient preset/spec (0 = preset/spec shape)")
}

// Parsed records which flags fs's command line set; call it after
// fs.Parse.
func (f *Flags) Parsed(fs *flag.FlagSet) {
	f.Set = map[string]bool{}
	fs.Visit(func(fl *flag.Flag) { f.Set[fl.Name] = true })
}

// PresetNames joins the built-in presets' CLI spellings with sep, in
// registry order, for flag help.
func PresetNames(sep string) string {
	var names []string
	for _, p := range figures.Presets() {
		names = append(names, p.Name)
	}
	return strings.Join(names, sep)
}

// Base resolves the preset an invocation sweeps before any flag
// override: the -spec file when one is given, else the built-in preset
// called name, else nil (a figure grid, or labsim's flag-built scenario).
func Base(specPath, name string) (*figures.Preset, error) {
	if specPath != "" {
		s, err := spec.Load(specPath)
		if err != nil {
			return nil, err
		}
		p := figures.PresetFromSpec(s)
		return &p, nil
	}
	if p, ok := figures.PresetByName(name); ok {
		return &p, nil
	}
	return nil, nil
}

// Options returns the flags as sweep overrides.
func (f Flags) Options() figures.SweepOptions {
	return figures.SweepOptions{
		Runs: f.Runs, TargetSamples: f.Samples,
		Replicas: f.Replicas, Router: f.Router, Shards: f.Shards,
		Timeout: f.Timeout, Retries: f.Retries, Hedge: f.Hedge,
	}
}

// scenario applies the flags to base (nil: an empty preset) at a
// placeholder rate: the shape every check below reads.
func (f Flags) scenario(base *figures.Preset) experiment.Scenario {
	var p figures.Preset
	if base != nil {
		p = *base
	}
	return figures.PresetScenario(p, 0, f.Options())
}

// Check validates the flags against base before any simulation starts,
// so a bad invocation fails in milliseconds rather than after a sweep.
// owned lists the flags a -spec file defines itself; setting one
// alongside -spec is a conflict, not an override. base is nil when the
// invocation runs figure grids, whose per-cell shapes the scenario
// validator checks later, still before any simulation.
func (f Flags) Check(base *figures.Preset, owned []string) error {
	if f.Spec != "" {
		var conflicts []string
		for _, name := range owned {
			if f.Set[name] {
				conflicts = append(conflicts, "-"+name)
			}
		}
		if len(conflicts) > 0 {
			return fmt.Errorf("%s cannot be combined with -spec (the spec owns the scenario shape)", strings.Join(conflicts, " "))
		}
	}
	for _, c := range []struct {
		name  string
		value int
	}{{"runs", f.Runs}, {"samples", f.Samples}, {"replicas", f.Replicas}, {"retries", f.Retries}} {
		if c.value < 0 {
			return fmt.Errorf("-%s must be ≥ 0, got %d", c.name, c.value)
		}
	}
	if f.Timeout < 0 {
		return fmt.Errorf("-timeout must be ≥ 0, got %v", f.Timeout)
	}
	if f.Hedge < 0 {
		return fmt.Errorf("-hedge must be ≥ 0, got %v", f.Hedge)
	}
	sc := f.scenario(base)
	if f.Router != "" {
		if _, err := cluster.NewRouter(f.Router); err != nil {
			return fmt.Errorf("-router: %w", err)
		}
		if f.Replicas == 0 && !sc.Clustered() {
			return fmt.Errorf("-router %s requires -replicas (or a clustered preset/spec)", f.Router)
		}
	}
	if f.Set["shards"] && f.Shards < 1 {
		return fmt.Errorf("-shards must be ≥ 1, got %d", f.Shards)
	}
	if p := sc.ShardPartitions(); base != nil && f.Shards > 1 && f.Shards > p {
		return fmt.Errorf("-shards %d exceeds the %d machine+replica partitions", f.Shards, p)
	}
	res := sc.Resilience
	if (f.Retries > 0 || f.Hedge > 0) && (res == nil || !res.Enabled()) {
		return fmt.Errorf("-retries/-hedge require -timeout (or a preset/spec with a resilience timeout)")
	}
	if f.Hedge > 0 && f.Hedge >= res.Timeout {
		return fmt.Errorf("-hedge %v must be below the timeout %v", f.Hedge, res.Timeout)
	}
	return nil
}

// ShardWarning returns a one-line ergonomics warning when -shards > 1
// runs a single-backend topology: the partition layout pins all server
// work to the shard that owns the backend, so conservative sync runs
// near its break-even instead of speeding up (the hour-long preset's
// shape). Replicated topologies spread server work across shards and
// stay silent. Warning only — the run proceeds, and its output is
// byte-identical either way.
func (f Flags) ShardWarning(base *figures.Preset) string {
	if f.Shards <= 1 || f.scenario(base).Clustered() {
		return ""
	}
	return fmt.Sprintf("warning: -shards %d on a single-backend topology keeps all server work on one shard (near the sharding break-even); use -parallel to parallelize across runs, or -replicas to spread server work", f.Shards)
}
