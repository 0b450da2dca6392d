package loadgen

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/rng"
	"repro/internal/sched"
)

// TestConcurrentRunOnceViaPool exercises the scheduler's worker-state
// contract at the generator layer: one private Generator per worker, many
// RunOnce repetitions in flight at once. Run with -race this verifies the
// simulation stack (loadgen, services, hw, sim, netmodel, workload) has
// no hidden shared state between independent generators, and that the
// per-run labeled streams make the collected results independent of the
// schedule.
func TestConcurrentRunOnceViaPool(t *testing.T) {
	const runs = 8
	duration := 80 * time.Millisecond

	collect := func(workers int) [][]float64 {
		res, err := sched.MapWorkers(context.Background(), sched.Pool{Workers: workers}, runs,
			func(int) (*Generator, error) {
				return syntheticGen(t, hw.LPConfig(), 10_000, true), nil
			}, nil,
			func(_ context.Context, gen *Generator, run int) ([]float64, error) {
				rr, err := gen.RunOnce(rng.NewLabeled(21, "race-run"+string(rune('0'+run))), duration)
				if err != nil {
					return nil, err
				}
				return rr.LatenciesUs, nil
			}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	seq := collect(1)
	par := collect(4)
	if !reflect.DeepEqual(seq, par) {
		t.Error("concurrent RunOnce results differ from sequential")
	}
}
