package main

import (
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/figures"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/spec"
)

// TestCheckFlags is the fail-fast table: -spec against spec-owned shape
// flags, and the router/replicas pairing, rejected before any
// simulation starts. The base is labsim's flag-built preset for the
// given service.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		name     string
		set      []string
		spec     string
		replicas int
		router   string
		shards   int
		service  string
		wantErr  string // substring; empty = no error
	}{
		{name: "defaults"},
		{name: "spec-alone", spec: "x.yaml"},
		{name: "spec-smoke-knobs", spec: "x.yaml", set: []string{"rate", "runs", "samples", "seed", "parallel", "samplemode", "point"}},
		{name: "spec-and-preset", spec: "x.yaml", set: []string{"preset"}, wantErr: "-preset"},
		{name: "spec-and-service", spec: "x.yaml", set: []string{"service"}, wantErr: "-service"},
		{name: "spec-and-client", spec: "x.yaml", set: []string{"client"}, wantErr: "-client"},
		{name: "spec-and-server", spec: "x.yaml", set: []string{"server-smt", "server-c1e"}, wantErr: "-server-smt -server-c1e"},
		{name: "spec-and-delay", spec: "x.yaml", set: []string{"delay"}, wantErr: "-delay"},
		{name: "spec-and-cluster", spec: "x.yaml", set: []string{"replicas", "router"}, wantErr: "-replicas -router"},
		{name: "router-and-replicas", replicas: 4, router: "consistent-hash"},
		{name: "router-no-replicas", router: "round-robin", wantErr: "requires -replicas"},
		{name: "unknown-router", replicas: 2, router: "random", wantErr: "router"},
		{name: "negative-replicas", replicas: -2, wantErr: "≥ 0"},
		{name: "spec-and-shards", spec: "x.yaml", set: []string{"shards"}, wantErr: "-shards"},
		{name: "shards-unset-default"},
		{name: "shards-valid", set: []string{"shards"}, shards: 4, service: "memcached"},
		{name: "shards-zero-explicit", set: []string{"shards"}, wantErr: "-shards must be ≥ 1"},
		{name: "shards-negative", set: []string{"shards"}, shards: -2, wantErr: "-shards must be ≥ 1"},
		{name: "shards-over-partitions", set: []string{"shards"}, shards: 6, service: "memcached", wantErr: "partitions"},
		{name: "shards-over-partitions-small-client", set: []string{"shards"}, shards: 3, service: "hdsearch", wantErr: "partitions"},
		{name: "shards-with-replicas", set: []string{"shards"}, shards: 6, replicas: 3, router: "consistent-hash", service: "memcached"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set := map[string]bool{}
			for _, name := range tc.set {
				set[name] = true
			}
			f := cli.Flags{Set: set, Spec: tc.spec, Replicas: tc.replicas, Router: tc.router, Shards: tc.shards}
			err := f.Check(&figures.Preset{Service: experiment.Service(tc.service)}, specOwnedFlags)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Check = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Check = nil, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestCheckResilienceFlags is the fail-fast table for the client
// resilience knobs: negatives, dependent flags and the hedge/timeout
// ordering are rejected before any simulation starts. A resilient base
// carries the faulty-cluster preset's 2ms timeout.
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := &figures.Preset{}
			if tc.resilient {
				base.Resilience = &loadgen.ResilienceConfig{Timeout: 2 * time.Millisecond}
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

// TestShardWarning is the ergonomics table: -shards on a single-backend
// topology must warn toward -parallel (the hour-long preset's shape,
// which runs near the sharding break-even); replicated shapes and
// unsharded runs stay silent.
func TestShardWarning(t *testing.T) {
	cases := []struct {
		name     string
		shards   int
		replicas int
		want     bool
	}{
		{name: "unsharded-default"},
		{name: "single-shard", shards: 1},
		{name: "sharded-single-backend", shards: 2, want: true},
		{name: "sharded-one-replica", shards: 4, replicas: 1, want: true},
		{name: "sharded-replicated", shards: 4, replicas: 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := cli.Flags{Shards: tc.shards, Replicas: tc.replicas}.ShardWarning(&figures.Preset{})
			if got := w != ""; got != tc.want {
				t.Fatalf("ShardWarning emitted %q, want warning=%v", w, tc.want)
			}
			if tc.want && !strings.Contains(w, "-parallel") {
				t.Fatalf("warning %q does not suggest -parallel", w)
			}
		})
	}
}

// TestPresetMatchesFigures pins that "labsim -preset P" runs, at P's peak
// rate, exactly the scenario the figures sweep builds for that rate:
// one override path for both CLIs. Only labsim's own run fields are set
// apart: its RNG stream label (the client name), measurement point and
// worker count.
func TestPresetMatchesFigures(t *testing.T) {
	for _, p := range figures.Presets() {
		t.Run(p.Name, func(t *testing.T) {
			got, err := parse([]string{"-preset", p.Name})
			if err != nil {
				t.Fatal(err)
			}
			want := figures.PresetScenario(p, p.Rates[len(p.Rates)-1], figures.SweepOptions{Seed: 1})
			want.Label, want.Point, want.Workers = p.ClientName, core.InApp, runtime.GOMAXPROCS(0)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("labsim scenario differs from figures':\ngot  %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestSpecMatchesSpecScenario pins that "labsim -spec F" runs the
// scenario the spec itself compiles at its peak rate, for every shipped
// example, so routing specs through the shared preset path changes no
// result.
func TestSpecMatchesSpecScenario(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "*.yaml"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example specs: %v", err)
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			s, err := spec.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			got, err := parse([]string{"-spec", path})
			if err != nil {
				t.Fatal(err)
			}
			rates := s.SweepRates()
			want := s.Scenario(rates[len(rates)-1])
			want.Seed, want.SampleMode, want.Workers = 1, metrics.SampleAuto, runtime.GOMAXPROCS(0)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("labsim scenario differs from the spec's:\ngot  %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestParseRejectsNegativeSizes pins the fail-fast bugfix: a negative
// -runs or -samples is an error, not a silent "use the default".
func TestParseRejectsNegativeSizes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-samples", "-7"}, "-samples"},
		{[]string{"-runs", "-3"}, "-runs"},
		{[]string{"-preset", "million-qps", "-runs", "-3", "-samples", "-7"}, "-runs"},
	} {
		if _, err := parse(tc.args); err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("parse(%q) = %v, want an error naming %s", tc.args, err, tc.flag)
		}
	}
}
