// Command perfbench is the repository's benchmark. It runs one named
// workload of the simulator for a time budget, checks every simulated
// output, and prints the host cost of the workload: the CPU time of
// set-up and of a pass, CPU time per simulated request and peak memory,
// with the wall-clock figures beside them. With --trace 1 it repeats the
// pass under a CPU profile and prints the cost of each layer of the
// simulator instead.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload mc-steady --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it give each
// metric's sample counts and spread, the host record and the digest.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/envpool"
	"repro/internal/sched"
)

const (
	// defaultSeed is the seed whose digests are recorded in digests.json.
	defaultSeed = 1
	// profileHz is the traced run's CPU sampling rate: above runtime/pprof's
	// 100 Hz default, and no faster than a 250 Hz kernel tick delivers
	// CPU-timer signals (trace.cpu_coverage shows a shortfall).
	profileHz = 250
	// setupProbes is how many cold set-ups an untraced run measures:
	// one in the benchmark process and the rest in fresh child
	// processes, since the Memcached preload is built once per process.
	setupProbes = 7
	// probeEnv marks a child process started to measure one set-up.
	probeEnv = "PERFBENCH_SETUP_PROBE"
)

//go:embed digests.json
var digestsJSON []byte

func main() {
	if os.Getenv(probeEnv) != "" {
		os.Exit(setupProbeMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	workload workload
	seed     uint64
	seconds  time.Duration
	trace    bool
	size     size
	// expect is the digest every pass must reproduce; empty checks only
	// that every pass reproduces the first.
	expect string
	// probes is how many cold set-ups an untraced run measures.
	probes int
}

func workloadNames() string {
	names := make([]string, len(workloadList))
	for i, w := range workloadList {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: "+workloadNames())
	seed := fl.Uint64("seed", defaultSeed, "seed every simulated input derives from")
	seconds := fl.Float64("seconds", 10, "time budget for the timed passes")
	trace := fl.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return config{}, err
	}
	w, ok := workloadByName(*name)
	if !ok {
		return config{}, fmt.Errorf("unknown workload %q (have %s)", *name, workloadNames())
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 || fl.NArg() > 0 {
		return config{}, errors.New("need --seconds > 0, --trace 0 or 1, and no other arguments")
	}
	cfg := config{workload: w, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, size: full, probes: setupProbes}
	if cfg.seed == defaultSeed {
		var recorded map[string]string
		if err := json.Unmarshal(digestsJSON, &recorded); err != nil {
			return config{}, fmt.Errorf("digests.json: %w", err)
		}
		if cfg.expect = recorded[w.name]; cfg.expect == "" {
			return config{}, fmt.Errorf("digests.json records no digest for %s", w.name)
		}
	}
	return cfg, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, err := bench(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// setupProbeMain is a child process's whole life: one cold set-up,
// printed as its wall and CPU seconds.
func setupProbeMain(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	sr, err := measureSetup(newEnv(), cfg.workload, cfg.seed, false)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: set-up:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%.9f %.9f\n", sr.wall, sr.cpu)
	return 0
}

// env is the benchmark's own simulation environment: one backend pool
// and one worker budget shared by every pass, plus phase clocks.
type env struct {
	ctx    context.Context
	pool   *envpool.Pool
	budget *sched.Budget
	// clock accumulates each phase's host time since the last reset.
	clock map[string]hostTime
}

// hostTime is wall and process CPU seconds.
type hostTime struct{ wall, cpu float64 }

func newEnv() *env {
	pool := envpool.New()
	budget := sched.NewBudget(workers)
	return &env{ctx: envpool.WithPool(sched.WithBudget(context.Background(), budget), pool),
		pool: pool, budget: budget, clock: map[string]hostTime{}}
}

// phase runs f under the pprof label phase=name, so the traced run can
// split its profile by the benchmark's own calls, and clocks it.
func (e *env) phase(name string, f func(ctx context.Context) error) error {
	var err error
	t0, c0 := time.Now(), cpuSeconds()
	pprof.Do(e.ctx, pprof.Labels("phase", name), func(ctx context.Context) { err = f(ctx) })
	ht := e.clock[name]
	ht.wall += time.Since(t0).Seconds()
	ht.cpu += cpuSeconds() - c0
	e.clock[name] = ht
	return err
}

// setupResult is one cold set-up: the host time its builds cost and
// the pool's build counts in the cold warm-up pass.
type setupResult struct {
	hostTime
	// builds and mBuilds count the backends and machine sets the cold
	// pass built.
	builds, mBuilds int
	// prof is the cold pass's profile, when traced.
	prof *attribution
}

// measureSetup times the workload's warm-up pass on e's empty pool,
// which builds every backend and client-machine set, then the same pass
// again on the filled pool, and takes the difference: the host time the
// builds cost.
func measureSetup(e *env, w workload, seed uint64, traced bool) (setupResult, error) {
	clear(e.clock)
	var sr setupResult
	var prof *profiler
	if traced {
		var err error
		if prof, err = startProfile(); err != nil {
			return sr, err
		}
	}
	err := w.warmupPass(e, seed)
	cold := e.clock["setup"]
	if prof != nil {
		p, perr := prof.stop()
		if err == nil && perr != nil {
			err = perr
		}
		if p != nil {
			sr.prof = newAttribution()
			sr.prof.add(p)
		}
	}
	if err != nil {
		return sr, err
	}
	sr.builds, _ = e.pool.Stats()
	sr.mBuilds, _ = e.pool.MachineStats()
	clear(e.clock)
	if err := w.warmupPass(e, seed); err != nil {
		return sr, err
	}
	warm := e.clock["setup"]
	sr.wall, sr.cpu = cold.wall-warm.wall, cold.cpu-warm.cpu
	return sr, nil
}

// probeSetup measures one cold set-up in a fresh child process.
func probeSetup(cfg config) (hostTime, error) {
	var ht hostTime
	self, err := os.Executable()
	if err != nil {
		return ht, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "--workload", cfg.workload.name,
		"--seed", strconv.FormatUint(cfg.seed, 10))
	cmd.Env = append(os.Environ(), probeEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return ht, fmt.Errorf("set-up probe: %w", err)
	}
	if _, err := fmt.Sscan(string(out), &ht.wall, &ht.cpu); err != nil {
		return ht, fmt.Errorf("set-up probe printed %q: %w", out, err)
	}
	return ht, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// digest is the first pass's digest.
	digest string
}

// passRecord is one timed pass's host cost.
type passRecord struct {
	wall, cpu      float64 // seconds
	run            hostTime
	reps, requests int
	// Pool activity: builds must be zero, leases count every lease.
	builds, mBuilds, leases, mLeases int
	allocBytes                       uint64
	allocObjects                     uint64
	gcCycles                         uint32
	gcPause                          float64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// stealSeconds reads the CPU time the hypervisor has taken from this
// machine's CPUs, summed over them (0 where the kernel does not say).
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// profiler captures one traced pass.
type profiler struct{ buf bytes.Buffer }

func startProfile() (*profiler, error) {
	p := &profiler{}
	// Setting the rate first raises it above pprof's 100 Hz; pprof then
	// logs that it cannot change the rate, and the profile records the
	// rate actually used.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		runtime.SetCPUProfileRate(0)
		return nil, err
	}
	return p, nil
}

func (p *profiler) stop() (*profile, error) {
	pprof.StopCPUProfile()
	return parseProfile(p.buf.Bytes())
}

// bench runs the workload: set-up, then timed passes until the time
// budget is spent, checking every pass's outputs.
func bench(cfg config, log io.Writer) (result, error) {
	w := cfg.workload
	host := newHostRecord()
	hb, err := json.Marshal(host)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(log, "host %s\n", hb)
	fmt.Fprintf(log, "timings compare only with reports of host_id %s\n", host.HostID)

	var setup []hostTime
	if !cfg.trace {
		for i := 1; i < cfg.probes; i++ {
			s, err := probeSetup(cfg)
			if err != nil {
				return result{}, err
			}
			setup = append(setup, s)
		}
	}
	e := newEnv()
	sr, err := measureSetup(e, w, cfg.seed, cfg.trace)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	setup = append(setup, sr.hostTime)

	res := result{Metrics: map[string]metric{}}
	ps, err := runPasses(e, cfg, &res, log)
	if err != nil {
		return result{}, err
	}
	res.Correct = res.Failed == 0

	u := ps.untraced[0]
	fmt.Fprintf(log, "workload %s seed %d: %d untraced and %d traced passes; each pass %d repetitions, %d simulated requests\n",
		w.name, cfg.seed, len(ps.untraced), len(ps.traced), u.reps, u.requests)
	fmt.Fprintf(log, "failed_frac %g (%d of %d repetitions)\n",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	fmt.Fprintf(log, "digest %s (%s)\n", res.digest, digestNote(cfg, res))
	cs := newColdStudy(u, sr)
	fmt.Fprintf(log, "property envpool reuse share %.3f (%d of %d backend leases in a cold study)\n",
		cs.reuseShare, cs.reuses, u.leases)
	fmt.Fprintf(log, "property host compute %.2f µs of CPU per simulated request\n",
		median(perReq(ps.untraced, func(r passRecord) float64 { return r.run.cpu }))*1e6)
	if ru := ps.ru; ru.attempts > 0 {
		fmt.Fprintf(log, "property timeout timers %d scheduled, %.4f of them cancelled by a response (%d fired)\n",
			ru.attempts, 1-float64(ru.timeouts)/float64(ru.attempts), ru.timeouts)
	}

	rep := reporter{res: &res, log: log}
	if cfg.trace {
		rep.traced(ps, sr, cs)
		for _, line := range predictions(w.name, ps.attr) {
			fmt.Fprintln(log, line)
		}
	} else {
		rep.untraced(ps, setup)
	}
	return res, nil
}

// passes is what the timed passes of one run measured.
type passes struct {
	untraced, traced []passRecord
	attr             *attribution // the traced passes' profiles
	ru               resilienceTotals
	peakRSS          float64
	// steal and wall are the host's stolen CPU seconds and the wall
	// seconds over all the passes.
	steal, wall float64
}

// runPasses runs timed passes until the time budget is spent, adding
// every pass's repetitions to res.Attempted and each failed one to
// res.Failed. A traced run alternates untraced and traced passes.
func runPasses(e *env, cfg config, res *result, log io.Writer) (passes, error) {
	ps := passes{attr: newAttribution()}
	expected := cfg.workload.repetitions(cfg.size)
	start, steal0 := time.Now(), stealSeconds()
	for i := 0; ; i++ {
		enough := len(ps.untraced) >= 3
		if cfg.trace {
			enough = len(ps.untraced) >= 2 && len(ps.traced) >= 2
		}
		// Failing passes never count as enough; stop retrying them
		// once the budget is spent.
		if (enough || i >= 8) && time.Since(start) >= cfg.seconds {
			break
		}
		isTraced := cfg.trace && i%2 == 1
		rec, out, p, err := onePass(e, cfg, isTraced)
		if i == 0 {
			// A one-shot study is set-up plus one pass; later passes
			// only let the heap drift with the pass count.
			ps.peakRSS = peakRSSMB()
		}
		res.Attempted += expected
		if err != nil {
			res.Failed += expected
			fmt.Fprintf(log, "pass %d failed: %v\n", i, err)
			continue
		}
		reps, bad, problems := checkPass(out)
		if reps != expected {
			problems = append(problems, fmt.Sprintf("pass held %d repetitions, want %d", reps, expected))
			bad = expected
		}
		d := digest(out)
		if res.digest == "" {
			res.digest, ps.ru = d, resilienceOf(out)
		}
		switch {
		case d != res.digest:
			problems = append(problems, fmt.Sprintf("digest %s differs from the first pass's %s", d, res.digest))
			bad = expected
		case cfg.expect != "" && d != cfg.expect:
			problems = append(problems, fmt.Sprintf("digest %s differs from the recorded %s", d, cfg.expect))
			bad = expected
		}
		if rec.builds+rec.mBuilds > 0 {
			problems = append(problems, fmt.Sprintf("timed pass built %d backends and %d machine sets", rec.builds, rec.mBuilds))
			bad = expected
		}
		res.Failed += bad
		for _, pr := range problems {
			fmt.Fprintf(log, "pass %d: %s\n", i, pr)
		}
		if isTraced {
			ps.attr.add(p)
			ps.traced = append(ps.traced, rec)
		} else {
			ps.untraced = append(ps.untraced, rec)
		}
	}
	ps.steal, ps.wall = stealSeconds()-steal0, time.Since(start).Seconds()
	if len(ps.untraced) == 0 || (cfg.trace && len(ps.traced) == 0) {
		return ps, errors.New("no pass completed")
	}
	return ps, nil
}

// coldStudy is the pool's work in one pass on an empty pool: it leases
// what a timed pass leases and builds what the warm-up pass built.
type coldStudy struct {
	reuses, mReuses int
	reuseShare      float64
}

func newColdStudy(u passRecord, sr setupResult) coldStudy {
	cs := coldStudy{reuses: max(u.leases-sr.builds, 0), mReuses: max(u.mLeases-sr.mBuilds, 0)}
	cs.reuseShare = ratio(float64(cs.reuses), float64(u.leases))
	return cs
}

// reporter records metrics in a result and prints each with its note.
type reporter struct {
	res *result
	log io.Writer
}

func (r reporter) put(name, unit string, v float64, note string) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(r.log, "metric %s = %.6g %s (%s)\n", name, v, unit, note)
}

func spread(xs []float64, what string) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("median of %d %s, quartiles %.6g–%.6g", len(xs), what, q1, q3)
}

// untraced reports the end-to-end metrics. Wall-clock figures are
// printed but not reported as metrics: on a shared virtual machine they
// move with the CPU time the hypervisor steals, which the CPU-time
// metrics do not count.
func (r reporter) untraced(ps passes, setup []hostTime) {
	fmt.Fprintf(r.log, "host steal %.2f s summed over all CPUs during %.1f s of timed passes\n", ps.steal, ps.wall)
	walls := field(ps.untraced, func(p passRecord) float64 { return p.wall })
	nsWall := perReq(ps.untraced, func(p passRecord) float64 { return p.run.wall * 1e9 })
	setupWall := make([]float64, len(setup))
	setupCPU := make([]float64, len(setup))
	for i, ht := range setup {
		setupWall[i], setupCPU[i] = ht.wall, ht.cpu
	}
	fmt.Fprintf(r.log, "wall_s = %.6g s (%s)\n", median(walls), spread(walls, "passes"))
	fmt.Fprintf(r.log, "host_ns_per_req = %.6g ns (wall; %s)\n", median(nsWall), spread(nsWall, "passes"))
	fmt.Fprintf(r.log, "setup wall = %.6g s (%s)\n", median(setupWall), spread(setupWall, "cold set-ups"))

	cpus := field(ps.untraced, func(p passRecord) float64 { return p.cpu })
	nsCPU := perReq(ps.untraced, func(p passRecord) float64 { return p.run.cpu * 1e9 })
	r.put("setup_s", "s", median(setupCPU), "CPU; "+spread(setupCPU, "cold set-ups"))
	r.put("cpu_s", "s", median(cpus), spread(cpus, "passes"))
	r.put("cpu_ns_per_req", "ns", median(nsCPU), spread(nsCPU, "passes"))
	r.put("peak_rss_mb", "MB", ps.peakRSS, "process maximum resident set after set-up and the first pass")
}

// traced reports the per-layer metrics.
func (r reporter) traced(ps passes, sr setupResult, cs coldStudy) {
	attr, u := ps.attr, ps.untraced[0]
	n := float64(len(ps.traced))
	per := func(x float64) float64 { return x / n }
	note := fmt.Sprintf("CPU seconds per traced pass, %d passes at %d Hz", len(ps.traced), profileHz)
	for _, l := range layers {
		r.put("layer."+l+"_s", "s", per(attr.layer[l]), note)
	}
	r.put("layer.sim.pop_s", "s", per(attr.simPop), note)
	r.put("layer.sim.cascade_s", "s", per(attr.simCasc), note)
	r.put("layer.sim.min_deadline_s", "s", per(attr.simMin), note)
	r.put("layer.rng.zipf_build_s", "s", per(attr.zipfBuild), note+", inclusive")
	for _, ph := range []string{"run", "reduce", "render"} {
		r.put("phase."+ph+"_s", "s", per(attr.phase[ph]), note)
	}
	r.put("phase.setup_s", "s", sr.prof.total, "CPU seconds of the cold warm-up pass")

	ru := ps.ru
	r.put("resilience.attempts", "count", float64(ru.attempts), "per pass")
	r.put("resilience.timeouts", "count", float64(ru.timeouts), "per pass")
	r.put("resilience.retries", "count", float64(ru.retries), "per pass")
	r.put("resilience.useful_ratio", "ratio", ratio(float64(ru.succeeded), float64(ru.attempts)), "succeeded ÷ attempts")

	reqs := float64(u.requests)
	bpr := field(ps.untraced, func(p passRecord) float64 { return float64(p.allocBytes) / reqs })
	opr := field(ps.untraced, func(p passRecord) float64 { return float64(p.allocObjects) / reqs })
	r.put("alloc.bytes_per_req", "B/req", median(bpr), spread(bpr, "untraced passes"))
	r.put("alloc.objects_per_req", "objects/req", median(opr), spread(opr, "untraced passes"))
	r.put("gc.cycles", "count", median(field(ps.untraced, func(p passRecord) float64 { return float64(p.gcCycles) })), "per untraced pass")
	r.put("gc.pause_s", "s", median(field(ps.untraced, func(p passRecord) float64 { return p.gcPause })), "per untraced pass")

	r.put("envpool.builds", "count", float64(sr.builds), "a cold study")
	r.put("envpool.reuses", "count", float64(cs.reuses), "a cold study")
	r.put("envpool.reuse_ratio", "ratio", cs.reuseShare, "a cold study")
	r.put("machines.builds", "count", float64(sr.mBuilds), "a cold study")
	r.put("machines.reuses", "count", float64(cs.mReuses), "a cold study")

	walls := field(ps.untraced, func(p passRecord) float64 { return p.wall })
	cpus := field(ps.untraced, func(p passRecord) float64 { return p.cpu })
	tcpus := field(ps.traced, func(p passRecord) float64 { return p.cpu })
	var tracedCPU float64
	for _, c := range tcpus {
		tracedCPU += c
	}
	r.put("sched.busy_ratio", "ratio", median(cpus)/(median(walls)*workers), "cpu_s ÷ (wall_s × workers)")
	r.put("count.repetitions", "count", float64(u.reps), "per pass")
	r.put("count.sim_requests", "count", reqs, "per pass")
	r.put("trace.unattributed_share", "ratio", ratio(attr.layer["other"], attr.total), "layer.other_s ÷ profile total")
	r.put("trace.overhead_ratio", "ratio", median(tcpus)/median(cpus), "traced cpu_s ÷ untraced cpu_s")
	r.put("trace.cpu_coverage", "ratio", ratio(attr.total, tracedCPU), "profile seconds ÷ getrusage CPU seconds of traced passes")

	var sum float64
	for _, l := range layers {
		sum += attr.layer[l]
	}
	fmt.Fprintf(r.log, "attribution: layers sum to %.6f s of a %.6f s profile\n", sum, attr.total)
}

func digestNote(cfg config, res result) string {
	switch {
	case cfg.expect == "":
		return "no recorded digest for this seed; passes checked against each other"
	case res.digest == cfg.expect:
		return "matches the recorded digest"
	}
	return "DIFFERS from the recorded digest " + cfg.expect
}

// onePass runs one timed pass and measures it.
func onePass(e *env, cfg config, isTraced bool) (passRecord, passOutput, *profile, error) {
	// Collect the previous pass's garbage now, so no pass pays for
	// another's.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	b0, r0 := e.pool.Stats()
	mb0, mr0 := e.pool.MachineStats()
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	var prof *profiler
	if isTraced {
		var err error
		if prof, err = startProfile(); err != nil {
			return passRecord{}, passOutput{}, nil, err
		}
	}
	t0 := time.Now()
	clear(e.clock)
	out, err := cfg.workload.timedPass(e, cfg.seed, cfg.size)
	wall := time.Since(t0)
	var p *profile
	if prof != nil {
		var perr error
		if p, perr = prof.stop(); err == nil {
			err = perr
		}
	}
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return passRecord{}, passOutput{}, nil, err
	}
	rec := passRecord{
		wall: wall.Seconds(), cpu: cpu, run: e.clock["run"],
		allocBytes:   ms1.TotalAlloc - ms0.TotalAlloc,
		allocObjects: ms1.Mallocs - ms0.Mallocs,
		gcCycles:     ms1.NumGC - ms0.NumGC,
		gcPause:      time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs).Seconds(),
	}
	b1, r1 := e.pool.Stats()
	mb1, mr1 := e.pool.MachineStats()
	rec.builds, rec.leases = b1-b0, b1-b0+r1-r0
	rec.mBuilds, rec.mLeases = mb1-mb0, mb1-mb0+mr1-mr0
	for _, r := range out.results {
		rec.reps += len(r.Runs)
		for _, m := range r.Runs {
			rec.requests += m.Samples
		}
	}
	return rec, out, p, nil
}

type resilienceTotals struct {
	attempts, timeouts, retries, succeeded int
}

// resilienceOf totals a pass's fault handling. Attempts are the
// requests the replica set received, every retry and hedge included.
func resilienceOf(out passOutput) resilienceTotals {
	var t resilienceTotals
	for _, r := range out.results {
		for _, m := range r.Runs {
			if m.Resilience == nil {
				continue
			}
			t.timeouts += m.Resilience.Stats.Timeouts
			t.retries += m.Resilience.Stats.Retries
			t.succeeded += m.Resilience.Stats.Succeeded
			if m.Cluster != nil {
				for _, rep := range m.Cluster.Replicas {
					t.attempts += int(rep.Routed)
				}
			}
		}
	}
	return t
}

// predictions reports, for the traced workload, whether the probe
// predictions the benchmark was designed around held as measured.
func predictions(name string, a *attribution) []string {
	largest, largestS := "", -1.0
	for _, l := range layers {
		if a.layer[l] > largestS {
			largest, largestS = l, a.layer[l]
		}
	}
	// The Zipf build competes with every layer's time outside it.
	rival, rivalS := "", -1.0
	for _, l := range layers {
		if t := a.layer[l] - a.zipfLayer[l]; t > rivalS {
			rival, rivalS = l, t
		}
	}
	verdict := func(ok bool) string {
		if ok {
			return "held"
		}
		return "did not hold"
	}
	share := func(x float64) float64 { return ratio(x, a.total) }
	var out []string
	switch name {
	case "hdsearch":
		out = append(out, fmt.Sprintf("prediction layer.lsh_s is the largest layer on hdsearch: %s (largest is %s at %.1f%%; lsh %.1f%%)",
			verdict(largest == "lsh"), largest, 100*share(largestS), 100*share(a.layer["lsh"])))
	case "paper-sweep":
		out = append(out, fmt.Sprintf("prediction layer.rng.zipf_build_s is the largest contributor on paper-sweep: %s (zipf build %.1f%%; largest layer outside it %s %.1f%%)",
			verdict(a.zipfBuild > rivalS), 100*share(a.zipfBuild), rival, 100*share(rivalS)))
	case "mc-steady":
		out = append(out, fmt.Sprintf("prediction layer.rng.zipf_build_s is a small share (<10%%) on mc-steady: %s (%.1f%%)",
			verdict(share(a.zipfBuild) < 0.10), 100*share(a.zipfBuild)))
	}
	// Material means at least 1% of the profile.
	for _, l := range []string{"cluster", "faults"} {
		material := share(a.layer[l]) >= 0.01
		if name == "fleet-faults" {
			out = append(out, fmt.Sprintf("prediction layer.%s_s is material (>=1%%) on fleet-faults: %s (%.2f%%)",
				l, verdict(material), 100*share(a.layer[l])))
		} else {
			out = append(out, fmt.Sprintf("prediction layer.%s_s is immaterial (<1%%) off fleet-faults: %s (%.2f%%)",
				l, verdict(!material), 100*share(a.layer[l])))
		}
	}
	return out
}

func field(rs []passRecord, f func(passRecord) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

// perReq divides a per-pass quantity by the pass's simulated requests.
func perReq(rs []passRecord, f func(passRecord) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r) / float64(r.requests)
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles with the exclusive
// method of Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	at := func(j int) float64 {
		// Position j·(n+1)/4, 1-based, clamped to the sample.
		m := j * (n + 1)
		i, delta := m/4, m%4
		switch {
		case i < 1:
			return s[0]
		case i >= n:
			return s[n-1]
		}
		return s[i-1] + float64(delta)*(s[i]-s[i-1])/4
	}
	return at(1), at(3)
}
