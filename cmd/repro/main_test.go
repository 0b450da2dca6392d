package main

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/experiment"
	"repro/internal/figures"
	"repro/internal/spec"
)

func TestRunStaticTables(t *testing.T) {
	opts := figures.SweepOptions{Runs: 2, Seed: 1, TargetSamples: 200}
	for _, exp := range []string{"table1", "table2", "table3", "recommendations"} {
		if err := run(exp, opts); err != nil {
			t.Errorf("run(%q): %v", exp, err)
		}
	}
}

func TestRunScalePresets(t *testing.T) {
	// Smoke scale: the CLI path CI exercises for the million-qps and
	// hour-long presets (full size is minutes of host time).
	opts := figures.SweepOptions{Runs: 1, Seed: 1, TargetSamples: 300}
	for _, exp := range []string{"million-qps", "hour-long", "faulty-cluster"} {
		if err := run(exp, opts); err != nil {
			t.Errorf("run(%q): %v", exp, err)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("fig99", figures.SweepOptions{Runs: 1}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// specBase loads an example spec the way -spec does; name is the
// -experiment value it must win over.
func specBase(t *testing.T, file, name string) *figures.Preset {
	t.Helper()
	p, err := cli.Base(filepath.Join("..", "..", "examples", file), name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// presetBase resolves -experiment name the way main does: a built-in
// preset, or nil for a figure grid.
func presetBase(t *testing.T, name string) *figures.Preset {
	t.Helper()
	p, err := cli.Base("", name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCheckFlags is the fail-fast table: bad flag combinations must be
// rejected at startup, before any sweep runs. base is the preset or spec
// the invocation sweeps (nil: a figure grid).
func TestCheckFlags(t *testing.T) {
	clustered := &figures.Preset{Replicas: 4}
	cases := []struct {
		name      string
		expSet    bool
		spec      string
		replicas  int
		router    string
		base      *figures.Preset
		shards    int
		shardsSet bool
		wantErr   bool
	}{
		{name: "defaults"},
		{name: "spec-alone", spec: "x.yaml"},
		{name: "spec-and-experiment", spec: "x.yaml", expSet: true, wantErr: true},
		{name: "experiment-alone", expSet: true},
		{name: "replicas-no-router", replicas: 4},
		{name: "router-and-replicas", replicas: 4, router: "round-robin"},
		{name: "router-no-replicas", router: "round-robin", wantErr: true},
		{name: "router-clustered-preset", router: "least-outstanding", base: clustered},
		{name: "unknown-router", replicas: 4, router: "random", wantErr: true},
		{name: "unknown-router-clustered", router: "random", base: clustered, wantErr: true},
		{name: "negative-replicas", replicas: -1, wantErr: true},
		// 4 client machines + 4 replicas = 8 partitions.
		{name: "shards-valid", shards: 4, shardsSet: true, base: &figures.Preset{Service: experiment.ServiceMemcached, Replicas: 4}},
		{name: "shards-zero-explicit", shardsSet: true, wantErr: true},
		{name: "shards-negative", shards: -1, shardsSet: true, wantErr: true},
		// 1 client machine + 3 replicas = 4 partitions.
		{name: "shards-over-partitions", shards: 5, shardsSet: true, base: &figures.Preset{Service: experiment.ServiceHDSearch, Replicas: 3}, wantErr: true},
		{name: "shards-unknown-partitions", shards: 16, shardsSet: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := cli.Flags{Set: map[string]bool{"experiment": tc.expSet, "shards": tc.shardsSet},
				Spec: tc.spec, Replicas: tc.replicas, Router: tc.router, Shards: tc.shards}
			err := f.Check(tc.base, specOwnedFlags)
			if (err != nil) != tc.wantErr {
				t.Errorf("Check = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

// TestCheckResilienceFlags is the fail-fast table for the client
// resilience knobs: negatives, dependent flags and the hedge/timeout
// ordering are rejected before any sweep runs.
func TestCheckResilienceFlags(t *testing.T) {
	cases := []struct {
		name      string
		timeout   time.Duration
		retries   int
		hedge     time.Duration
		resilient bool
		wantErr   string // substring; empty = no error
	}{
		{name: "defaults"},
		{name: "timeout-alone", timeout: time.Millisecond},
		{name: "full-stack", timeout: 2 * time.Millisecond, retries: 3, hedge: time.Millisecond},
		{name: "negative-timeout", timeout: -time.Millisecond, wantErr: "-timeout"},
		{name: "negative-retries", retries: -1, wantErr: "-retries"},
		{name: "negative-hedge", hedge: -time.Millisecond, wantErr: "-hedge"},
		{name: "retries-no-timeout", retries: 2, wantErr: "require -timeout"},
		{name: "hedge-no-timeout", hedge: time.Millisecond, wantErr: "require -timeout"},
		{name: "retries-resilient-base", retries: 2, resilient: true},
		{name: "hedge-resilient-base", hedge: time.Millisecond, resilient: true},
		{name: "hedge-at-timeout", timeout: time.Millisecond, hedge: time.Millisecond, wantErr: "below the timeout"},
		{name: "hedge-above-timeout", timeout: time.Millisecond, hedge: 2 * time.Millisecond, wantErr: "below the timeout"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var base *figures.Preset
			if tc.resilient {
				base = presetBase(t, "faulty-cluster") // 2ms timeout
			}
			err := cli.Flags{Timeout: tc.timeout, Retries: tc.retries, Hedge: tc.hedge}.Check(base, specOwnedFlags)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Check = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Check = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestBaseResilient pins which invocations make a bare -retries/-hedge
// legal: the preset or spec must already carry a resilience timeout.
func TestBaseResilient(t *testing.T) {
	retriesOK := func(base *figures.Preset) bool {
		return cli.Flags{Retries: 2}.Check(base, specOwnedFlags) == nil
	}
	if retriesOK(presetBase(t, "million-qps")) {
		t.Error("million-qps reported resilient")
	}
	if !retriesOK(presetBase(t, "faulty-cluster")) {
		t.Error("faulty-cluster preset not reported resilient")
	}
	if !retriesOK(specBase(t, "faulty-cluster.yaml", "all")) {
		t.Error("resilient spec not reported resilient")
	}
	if retriesOK(specBase(t, "cluster.yaml", "faulty-cluster")) {
		t.Error("non-resilient spec reported resilient (spec must win over -experiment name)")
	}
}

// TestBasePartitions pins the fail-fast partition count: the shard
// ceiling a preset or spec invocation is checked against at startup.
func TestBasePartitions(t *testing.T) {
	// ceiling asserts that -shards want passes and -shards want+1 fails.
	ceiling := func(label string, base *figures.Preset, replicas, want int) {
		t.Helper()
		check := func(shards int) error {
			return cli.Flags{Set: map[string]bool{"shards": true}, Shards: shards, Replicas: replicas}.Check(base, specOwnedFlags)
		}
		if err := check(want); err != nil {
			t.Errorf("%s: -shards %d rejected: %v", label, want, err)
		}
		if err := check(want + 1); err == nil || !strings.Contains(err.Error(), "partitions") {
			t.Errorf("%s: -shards %d = %v, want the %d-partition ceiling", label, want+1, err, want)
		}
	}
	if err := (cli.Flags{Set: map[string]bool{"shards": true}, Shards: 64}).Check(presetBase(t, "all"), specOwnedFlags); err != nil {
		t.Errorf("figure grid partitions must be unknown (no ceiling): %v", err)
	}
	ceiling("million-qps (4 machines + 1 backend)", presetBase(t, "million-qps"), 0, 5)
	ceiling("sharded (4 machines + 4 replicas)", presetBase(t, "sharded"), 0, 8)
	ceiling("million-qps -replicas 3", presetBase(t, "million-qps"), 3, 7)
	ceiling("hdsearch spec (1 machine + 2 replicas)", &figures.Preset{Service: experiment.ServiceHDSearch, Replicas: 2}, 0, 3)
}

// TestBaseClustered pins which invocations make a bare -router legal.
func TestBaseClustered(t *testing.T) {
	routerOK := func(base *figures.Preset) bool {
		return cli.Flags{Router: "least-outstanding"}.Check(base, specOwnedFlags) == nil
	}
	if routerOK(presetBase(t, "million-qps")) {
		t.Error("million-qps reported clustered")
	}
	if !routerOK(presetBase(t, "cluster")) {
		t.Error("cluster preset not reported clustered")
	}
	if !routerOK(specBase(t, "cluster.yaml", "all")) {
		t.Error("replicated spec not reported clustered")
	}
	if routerOK(specBase(t, "million-qps.yaml", "cluster")) {
		t.Error("single-backend spec reported clustered (spec must win over -experiment name)")
	}
}

// TestRunSpecPreset smokes the -spec path end to end: a spec-compiled
// preset runs through the same runPreset code the CLI uses.
func TestRunSpecPreset(t *testing.T) {
	s, err := spec.Load(filepath.Join("..", "..", "examples", "phases-spike.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	p := figures.PresetFromSpec(s)
	if err := runPreset(p, figures.SweepOptions{Runs: 1, Seed: 1, TargetSamples: 300}); err != nil {
		t.Errorf("runPreset(spec): %v", err)
	}
}

func TestRunSingleFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a reduced sweep")
	}
	opts := figures.SweepOptions{Runs: 2, Seed: 2, TargetSamples: 300}
	if err := run("fig6", opts); err != nil {
		t.Errorf("run(fig6): %v", err)
	}
}

// TestShardWarning is the ergonomics table: -shards on a single-backend
// topology (hour-long's shape) must warn toward -parallel; replicated
// shapes and unsharded runs stay silent.
func TestShardWarning(t *testing.T) {
	clusterPreset := figures.Preset{Replicas: 4}
	singlePreset := figures.Preset{}
	cases := []struct {
		name     string
		shards   int
		exp      string
		spec     *figures.Preset
		replicas int
		want     bool
	}{
		{name: "unsharded-default", exp: "all"},
		{name: "single-shard", shards: 1, exp: "hour-long"},
		{name: "hour-long-sharded", shards: 2, exp: "hour-long", want: true},
		{name: "million-qps-sharded", shards: 4, exp: "million-qps", want: true},
		{name: "figure-grid-sharded", shards: 2, exp: "all", want: true},
		{name: "cluster-preset-sharded", shards: 4, exp: "cluster"},
		{name: "replicas-flag-spreads-work", shards: 4, exp: "hour-long", replicas: 4},
		{name: "replicated-spec", shards: 4, exp: "all", spec: &clusterPreset},
		{name: "single-backend-spec", shards: 2, exp: "all", spec: &singlePreset, want: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := tc.spec
			if base == nil {
				base = presetBase(t, tc.exp)
			}
			w := cli.Flags{Shards: tc.shards, Replicas: tc.replicas}.ShardWarning(base)
			if got := w != ""; got != tc.want {
				t.Fatalf("ShardWarning emitted %q, want warning=%v", w, tc.want)
			}
			if tc.want && !strings.Contains(w, "-parallel") {
				t.Fatalf("warning %q does not suggest -parallel", w)
			}
		})
	}
}
