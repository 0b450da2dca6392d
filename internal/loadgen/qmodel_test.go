package loadgen

import (
	"fmt"
	"math"
	"testing"
)

// Closed-form queueing references — M/M/c (Erlang-C) and the
// Allen–Cunneen M/G/c approximation — that TestSimulatorMatchesQueueingTheory
// validates the discrete-event simulation against. Rates are per second,
// times in seconds.

// erlangC returns the probability that an arriving customer waits in an
// M/M/c system with offered load a = λ/µ and c servers.
func erlangC(c int, a float64) (float64, error) {
	if c < 1 {
		return 0, fmt.Errorf("need ≥1 server, got %d", c)
	}
	if a <= 0 {
		return 0, fmt.Errorf("offered load must be positive, got %v", a)
	}
	rho := a / float64(c)
	if rho >= 1 {
		return 0, fmt.Errorf("M/M/c unstable (ρ=%v ≥ 1)", rho)
	}
	// Iterative Erlang-B, then convert to Erlang-C for numerical stability.
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	return b / (1 - rho*(1-b)), nil
}

// mmc returns the mean residence time (wait + service) of an M/M/c
// queue with arrival rate lambda and per-server service rate mu.
func mmc(lambda, mu float64, c int) (float64, error) {
	if lambda <= 0 || mu <= 0 {
		return 0, fmt.Errorf("rates must be positive (λ=%v µ=%v)", lambda, mu)
	}
	pw, err := erlangC(c, lambda/mu)
	if err != nil {
		return 0, err
	}
	wq := pw / (float64(c)*mu - lambda)
	return wq + 1/mu, nil
}

// mgcApprox returns the mean residence time of an M/G/c queue using the
// Allen–Cunneen approximation: the M/M/c waiting time scaled by
// (1+scv)/2, where scv = Var/mean² of the service time. Exact for
// scv=1; a standard engineering estimate otherwise.
func mgcApprox(lambda, meanService, scv float64, c int) (float64, error) {
	if meanService <= 0 {
		return 0, fmt.Errorf("non-positive service time %v", meanService)
	}
	w, err := mmc(lambda, 1/meanService, c)
	if err != nil {
		return 0, err
	}
	wqExp := w - meanService
	return wqExp*(1+scv)/2 + meanService, nil
}

// utilization returns λ·E[S]/c.
func utilization(lambda, meanService float64, c int) float64 {
	if c <= 0 {
		return math.Inf(1)
	}
	return lambda * meanService / float64(c)
}

func TestErlangCKnownValues(t *testing.T) {
	// Classic table value: c=2, a=1 (ρ=0.5): C = 1/3.
	pw, err := erlangC(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pw-1.0/3.0) > 1e-9 {
		t.Errorf("erlangC(2,1) = %v, want 1/3", pw)
	}
	// c=1 reduces to ρ.
	pw, _ = erlangC(1, 0.7)
	if math.Abs(pw-0.7) > 1e-9 {
		t.Errorf("erlangC(1,0.7) = %v, want 0.7", pw)
	}
}

func TestErlangCErrors(t *testing.T) {
	if _, err := erlangC(0, 1); err == nil {
		t.Error("zero servers accepted")
	}
	if _, err := erlangC(2, 2); err == nil {
		t.Error("unstable system accepted")
	}
	if _, err := erlangC(2, -1); err == nil {
		t.Error("negative load accepted")
	}
}

func TestMMcReducesToMM1(t *testing.T) {
	// M/M/1: W = 1/(µ−λ).
	w1 := 1 / (1 - 0.6)
	wc, err := mmc(0.6, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w1-wc) > 1e-9 {
		t.Errorf("mmc(c=1) = %v ≠ M/M/1 W = %v", wc, w1)
	}
}

func TestMMcPoolingBeatsSingleServer(t *testing.T) {
	// Ten servers at ρ=0.5 wait far less than one server at ρ=0.5.
	w1, _ := mmc(0.5, 1, 1)
	w10, err := mmc(5, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if w10 >= w1 {
		t.Errorf("pooled W %v not below single-server W %v", w10, w1)
	}
	// At ρ=0.5 with 10 servers, waiting is nearly zero: W ≈ E[S].
	if w10 > 1.1 {
		t.Errorf("W(M/M/10, ρ=.5) = %v, want ≈1", w10)
	}
}

func TestMGcApprox(t *testing.T) {
	// scv=1 must equal M/M/c.
	w, _ := mmc(5, 1, 10)
	mgc, err := mgcApprox(5, 1, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mgc-w) > 1e-9 {
		t.Errorf("mgcApprox(scv=1) = %v ≠ mmc = %v", mgc, w)
	}
	// Lower variability → lower wait.
	mgcD, _ := mgcApprox(5, 1, 0, 10)
	if mgcD > mgc {
		t.Errorf("deterministic service waits more: %v > %v", mgcD, mgc)
	}
}

func TestUtilization(t *testing.T) {
	if got := utilization(500_000, 10e-6, 10); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("utilization = %v, want 0.5", got)
	}
	if !math.IsInf(utilization(1, 1, 0), 1) {
		t.Error("zero servers should be infinite")
	}
}
