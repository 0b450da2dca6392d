package loadgen

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/netmodel"
	"repro/internal/rng"
	"repro/internal/services"
	"repro/internal/stats"
)

// TestSimulatorMatchesQueueingTheory validates the discrete-event engine
// against the M/G/c closed form: a synthetic service (shared queue, low
// service variability) driven by an HP client measured at the NIC (so no
// client overhead pollutes the comparison) must land near the
// Allen–Cunneen prediction for its residence time.
func TestSimulatorMatchesQueueingTheory(t *testing.T) {
	cfg := services.DefaultSyntheticConfig()
	cfg.Delay = 100 * time.Microsecond // service ≈ 109.5µs, CV small
	backend, err := services.NewSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const rate = 60_000 // util ≈ 60000 × 110µs / 10 ≈ 0.66
	net := netmodel.DefaultConfig()
	net.JitterSD = 0 // deterministic links for a clean subtraction
	g, err := New(Config{
		Machines:          4,
		ThreadsPerMachine: 2,
		ConnsPerThread:    10,
		RateQPS:           rate,
		ClientHW:          hw.HPConfig(),
		TimeSensitive:     true,
		Point:             core.NICHardware,
		Warmup:            40 * time.Millisecond,
		Net:               net,
		Payloads:          func(*rng.Stream) PayloadSource { return staticSource{} },
	}, backend)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.RunOnce(rng.New(7), 600*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}

	measured := stats.Mean(res.LatenciesUs)
	// Subtract the deterministic network (2 × (5µs + 64B·0.8ns ≈ 0.05µs))
	// to isolate server residence.
	serverResidence := measured - 2*5.05

	// Theory: service = base(9µs, lognormal σ=0.10 ⇒ scv≈0.01) + 100µs
	// delay + stack(1.8µs) with mild contention inflation at ~6 busy
	// workers (×(1+0.02×5) ≈ 1.10 applied mid-queue; approximate the mean
	// service accordingly).
	meanService := (9.0*1.005 + 100 + 1.8) * 1.07e-6 // seconds, with contention
	scv := 0.02
	want, err := mgcApprox(rate, meanService, scv, 10)
	if err != nil {
		t.Fatal(err)
	}
	wantUs := want * 1e6

	t.Logf("simulated server residence %.1fµs vs M/G/c prediction %.1fµs (util %.2f)",
		serverResidence, wantUs, utilization(rate, meanService, 10))
	ratio := serverResidence / wantUs
	if ratio < 0.75 || ratio > 1.35 {
		t.Errorf("simulation/theory ratio = %.2f, want ≈1 (sim %.1fµs theory %.1fµs)",
			ratio, serverResidence, wantUs)
	}
}

// TestSimulatorLightLoadMatchesServiceTime: with negligible load the
// residence time must equal the bare service time (no queueing) — the
// degenerate case every queueing model agrees on.
func TestSimulatorLightLoadMatchesServiceTime(t *testing.T) {
	cfg := services.DefaultSyntheticConfig()
	cfg.Delay = 200 * time.Microsecond
	backend, err := services.NewSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net := netmodel.DefaultConfig()
	net.JitterSD = 0
	g, err := New(Config{
		Machines:          1,
		ThreadsPerMachine: 1,
		ConnsPerThread:    4,
		RateQPS:           500, // util ≈ 0.01
		ClientHW:          hw.HPConfig(),
		TimeSensitive:     true,
		Point:             core.NICHardware,
		Warmup:            50 * time.Millisecond,
		Net:               net,
		Payloads:          func(*rng.Stream) PayloadSource { return staticSource{} },
	}, backend)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.RunOnce(rng.New(8), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	serverResidence := stats.Mean(res.LatenciesUs) - 2*5.05
	// Bare service ≈ 9 + 200 + 1.8 ≈ 211µs (plus C1 wake ≈ 2–4µs).
	if math.Abs(serverResidence-213) > 10 {
		t.Errorf("light-load residence %.1fµs, want ≈211–215µs", serverResidence)
	}
}
