package cli

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/figures"
)

// TestCheck is the shared validator's own table; each CLI's test file
// runs its historical cases against the same Check.
func TestCheck(t *testing.T) {
	faulty, _ := figures.PresetByName("faulty-cluster")
	autoscaled := figures.Preset{Autoscale: &cluster.AutoscalerConfig{Min: 2, Max: 4}}
	cases := []struct {
		name    string
		f       Flags
		base    *figures.Preset
		wantErr string // substring; empty = no error
	}{
		{name: "zero-runs-means-default"},
		{name: "zero-samples-means-default", f: Flags{Samples: 0, Set: map[string]bool{"samples": true}}},
		{name: "negative-runs", f: Flags{Runs: -3}, wantErr: "-runs must be ≥ 0"},
		{name: "negative-samples", f: Flags{Samples: -7}, wantErr: "-samples must be ≥ 0"},
		{name: "negative-runs-on-preset", f: Flags{Runs: -3, Samples: -7}, base: &faulty, wantErr: "-runs"},
		{name: "negative-samples-on-preset", f: Flags{Samples: -7}, base: &faulty, wantErr: "-samples"},
		{name: "unknown-router-names-flag", f: Flags{Replicas: 2, Router: "random"}, wantErr: "-router"},
		{name: "router-autoscaled-spec", f: Flags{Router: "round-robin"}, base: &autoscaled},
		// experiment's rule: 4 client machines + the 2 initially active replicas.
		{name: "autoscaled-partitions", f: Flags{Shards: 6, Set: map[string]bool{"shards": true}}, base: &autoscaled},
		{name: "autoscaled-over-partitions", f: Flags{Shards: 7, Set: map[string]bool{"shards": true}}, base: &autoscaled, wantErr: "partitions"},
		{name: "hedge-below-base-timeout", f: Flags{Hedge: time.Millisecond}, base: &faulty},
		{name: "hedge-at-base-timeout", f: Flags{Hedge: 2 * time.Millisecond}, base: &faulty, wantErr: "below the timeout"},
		{name: "spec-owned-flag", f: Flags{Spec: "x.yaml", Set: map[string]bool{"a": true, "b": true}}, wantErr: "-a cannot be combined with -spec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.f.Check(tc.base, []string{"a"})
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

// TestBase pins the resolution order: a -spec file wins over the
// preset name, an unknown name is no preset, and a bad file is an error.
func TestBase(t *testing.T) {
	p, err := Base(filepath.Join("..", "..", "examples", "cluster.yaml"), "hour-long")
	if err != nil || p == nil || p.Name != "cluster" {
		t.Fatalf("Base(cluster.yaml, hour-long) = %+v, %v; want the spec's preset", p, err)
	}
	if p, err := Base("", "hour-long"); err != nil || p == nil || p.Name != "hour-long" {
		t.Fatalf("Base(\"\", hour-long) = %+v, %v", p, err)
	}
	if p, err := Base("", "fig2"); err != nil || p != nil {
		t.Fatalf("Base(\"\", fig2) = %+v, %v; want no preset", p, err)
	}
	if _, err := Base("no-such-file.yaml", ""); err == nil {
		t.Fatal("missing spec file accepted")
	}
}

// TestPresetNames pins that flag help lists the whole registry in order.
func TestPresetNames(t *testing.T) {
	want := "million-qps|cluster|sharded|faulty-cluster|hour-long"
	if got := PresetNames("|"); got != want {
		t.Fatalf("PresetNames = %q, want %q", got, want)
	}
}
