package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"sort"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when
// bench starts set-up probes in child processes.
func TestMain(m *testing.M) {
	if os.Getenv(probeEnv) != "" {
		os.Exit(setupProbeMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

var endToEnd = []string{"setup_s", "cpu_s", "cpu_ns_per_req", "peak_rss_mb"}

var perLayer = []string{
	"layer.sim_s", "layer.sim.pop_s", "layer.sim.cascade_s", "layer.sim.min_deadline_s",
	"layer.loadgen_s", "layer.netmodel_s", "layer.hw_s", "layer.services_s", "layer.kvstore_s",
	"layer.cluster_s", "layer.faults_s", "layer.rng_s", "layer.rng.zipf_build_s", "layer.workload_s",
	"layer.lsh_s", "layer.metrics_s", "layer.stats_s", "layer.harness_s", "layer.gc_s", "layer.other_s",
	"resilience.attempts", "resilience.timeouts", "resilience.retries", "resilience.useful_ratio",
	"alloc.bytes_per_req", "alloc.objects_per_req", "gc.cycles", "gc.pause_s",
	"phase.setup_s", "phase.run_s", "phase.reduce_s", "phase.render_s",
	"envpool.builds", "envpool.reuses", "envpool.reuse_ratio", "machines.builds", "machines.reuses",
	"sched.busy_ratio", "count.repetitions", "count.sim_requests",
	"trace.unattributed_share", "trace.overhead_ratio", "trace.cpu_coverage",
}

func smokeConfig(t *testing.T, name string, seed uint64, trace bool) config {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	return config{workload: w, seed: seed, seconds: time.Millisecond, trace: trace, size: smoke, probes: 1}
}

func runSmoke(t *testing.T, cfg config) result {
	t.Helper()
	res, err := bench(cfg, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload.name, err)
	}
	return res
}

// checkMetrics requires exactly the named metrics, each finite with a unit.
func checkMetrics(t *testing.T, name string, res result, want []string) {
	t.Helper()
	var got []string
	for k, m := range res.Metrics {
		got = append(got, k)
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit == "" {
			t.Errorf("%s: metric %s = %v %q", name, k, m.Value, m.Unit)
		}
	}
	sort.Strings(got)
	w := append([]string(nil), want...)
	sort.Strings(w)
	if len(got) != len(w) {
		t.Fatalf("%s: metrics %v, want %v", name, got, w)
	}
	for i := range w {
		if got[i] != w[i] {
			t.Fatalf("%s: metrics %v, want %v", name, got, w)
		}
	}
}

func TestEveryWorkloadRuns(t *testing.T) {
	for _, w := range workloadList {
		t.Run(w.name, func(t *testing.T) {
			cfg := smokeConfig(t, w.name, 7, false)
			res := runSmoke(t, cfg)
			if !res.Correct || res.Failed != 0 || res.Attempted < 3*w.repetitions(smoke) {
				t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			checkMetrics(t, w.name, res, endToEnd)
			// setup_s is only checked in a fresh process (below): this
			// one already holds the preloads of earlier subtests.
			if res.Metrics["cpu_s"].Value <= 0 || res.Metrics["cpu_ns_per_req"].Value <= 0 {
				t.Errorf("non-positive times: %+v", res.Metrics)
			}

			cfg.trace = true
			traced := runSmoke(t, cfg)
			if !traced.Correct {
				t.Fatalf("traced run failed %d of %d repetitions", traced.Failed, traced.Attempted)
			}
			checkMetrics(t, w.name, traced, perLayer)
			if traced.digest != res.digest {
				t.Errorf("traced digest %s, untraced %s", traced.digest, res.digest)
			}
			if traced.Metrics["count.repetitions"].Value != float64(w.repetitions(smoke)) {
				t.Errorf("count.repetitions %v, want %d", traced.Metrics["count.repetitions"].Value, w.repetitions(smoke))
			}
		})
	}
}

func TestSetupProbeInChildProcess(t *testing.T) {
	cfg := smokeConfig(t, "fleet-faults", 7, false)
	cfg.probes = 3 // two cold child processes outvote this warm one
	res := runSmoke(t, cfg)
	if s := res.Metrics["setup_s"].Value; !(s > 0) {
		t.Fatalf("setup_s %v", s)
	}
}

func TestTamperedDigestCountsAsFailed(t *testing.T) {
	cfg := smokeConfig(t, "mc-steady", 7, false)
	cfg.expect = "00000000000000000000000000000000"
	res := runSmoke(t, cfg)
	if res.Correct || res.Failed == 0 || res.Failed != res.Attempted {
		t.Fatalf("tampered digest: correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
	}
}

func TestDigestFollowsSeed(t *testing.T) {
	a := runSmoke(t, smokeConfig(t, "fleet-faults", 7, false))
	b := runSmoke(t, smokeConfig(t, "fleet-faults", 7, false))
	c := runSmoke(t, smokeConfig(t, "fleet-faults", 8, false))
	if a.digest != b.digest {
		t.Errorf("same seed, digests %s and %s", a.digest, b.digest)
	}
	if a.digest == c.digest {
		t.Errorf("seeds 7 and 8 share digest %s", a.digest)
	}
}

// TestRecordedDigests runs one full-size pass of every workload at the
// default seed and compares it with digests.json.
func TestRecordedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size passes")
	}
	var recorded map[string]string
	if err := json.Unmarshal(digestsJSON, &recorded); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadList {
		out, err := w.timedPass(newEnv(), defaultSeed, full)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if reps, bad, problems := checkPass(out); bad != 0 || reps != w.repetitions(full) {
			t.Errorf("%s: %d of %d repetitions fail: %v", w.name, bad, reps, problems)
		}
		if d := digest(out); d != recorded[w.name] {
			t.Errorf("%s: digest %s, recorded %s", w.name, d, recorded[w.name])
		}
	}
}

// TestBenchmarkJSONNamesTheMetrics keeps BENCHMARK.json, at the root of
// the repository, in step with what the benchmark prints.
func TestBenchmarkJSONNamesTheMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) map[string]bool {
		m := map[string]bool{}
		for _, x := range xs {
			m[x.Name] = true
		}
		return m
	}
	for label, pair := range map[string]struct {
		got  map[string]bool
		want []string
	}{
		"end_to_end": {names(spec.EndToEnd), endToEnd},
		"per_layer":  {names(spec.PerLayer), perLayer},
		"workloads":  {names(spec.Workloads), workloadNameList()},
	} {
		if len(pair.got) != len(pair.want) {
			t.Errorf("%s lists %d names, the benchmark %d", label, len(pair.got), len(pair.want))
		}
		for _, n := range pair.want {
			if !pair.got[n] {
				t.Errorf("%s lacks %s", label, n)
			}
		}
	}
}

func workloadNameList() []string {
	var out []string
	for _, w := range workloadList {
		out = append(out, w.name)
	}
	return out
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles %v %v", q1, q3)
	}
}

func TestAttributionChargesInnermostReproFrame(t *testing.T) {
	p := &profile{frames: map[uint64][]string{
		1: {"runtime.mallocgc"},
		2: {"repro/internal/rng.(*Stream).Float64", "repro/internal/rng.NewZipf"}, // inlined
		3: {"repro/internal/workload.NewETC"},
		4: {"repro/internal/sim.(*wheel).cascadeChain"},
		5: {"repro/internal/sim.(*wheel).pop"},
		6: {"repro/internal/sim.(*Engine).Step"},
		7: {"runtime.gcDrain", "runtime.gcBgMarkWorker"},
		8: {"runtime.futex"},
		9: {"repro/internal/socialgraph.New"},
	}}
	add := func(ms int64, labels map[string]string, locs ...uint64) {
		p.samples = append(p.samples, profSample{locs: locs, nanos: ms * 1e6, labels: labels})
	}
	add(10, map[string]string{"phase": "run"}, 1, 2, 3) // malloc under NewZipf: rng
	add(20, nil, 4, 5, 6)                               // cascade inside pop
	add(30, nil, 5, 6)                                  // pop
	add(40, nil, 7)                                     // background GC
	add(50, nil, 8)                                     // no repro frame
	add(60, nil, 1, 9)                                  // unlisted package

	a := newAttribution()
	a.add(p)
	want := map[string]float64{"rng": 0.01, "sim": 0.05, "gc": 0.04, "other": 0.11}
	var sum float64
	for _, l := range layers {
		sum += a.layer[l]
		if math.Abs(a.layer[l]-want[l]) > 1e-12 {
			t.Errorf("layer %s = %v, want %v", l, a.layer[l], want[l])
		}
	}
	if math.Abs(sum-a.total) > 1e-12 || math.Abs(a.total-0.21) > 1e-12 {
		t.Errorf("layers sum to %v of a %v total, want 0.21", sum, a.total)
	}
	if a.simCasc != 0.02 || a.simPop != 0.03 || a.zipfBuild != 0.01 || a.phase["run"] != 0.01 {
		t.Errorf("cascade %v pop %v zipf %v run phase %v", a.simCasc, a.simPop, a.zipfBuild, a.phase["run"])
	}
}
