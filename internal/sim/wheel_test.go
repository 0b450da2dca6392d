package sim

import (
	"math/rand"
	"testing"
	"time"
)

// This file differential-tests the production engine and its timer
// wheel against the reference binary heap (reference_test.go): the
// observable behaviour — firing order, clocks, cancellation semantics —
// must be byte-identical between them. The random runs below exercise
// schedule/cancel/reschedule interleavings, including stale-ID (ABA)
// cancels against recycled wheel slots and deferred-origin schedules,
// and the pending-population benchmarks measure the O(log n) → O(1) win
// the wheel exists for.

// firing is one observed event execution.
type firing struct {
	at  Time
	tag int
}

// dualOp is one scripted queue operation, applied identically to both
// engines.
type dualOp struct {
	kind    int // 0 schedule, 1 cancel live, 2 cancel stale, 3 step, 4 runUntil, 5 reschedule, 6 deferred-origin schedule
	delay   time.Duration
	pick    int // index into live (cancel/reschedule) or retired (stale cancel) IDs; origin draw (deferred schedule)
	horizon time.Duration
}

// genOps builds a deterministic random op script. Delays are drawn from
// mixed magnitudes (same-tick collisions up to multi-millisecond jumps)
// so events land on every wheel level and same-deadline FIFO ordering is
// exercised hard.
func genOps(rng *rand.Rand, n int) []dualOp {
	ops := make([]dualOp, n)
	for i := range ops {
		op := dualOp{kind: weightedKind(rng)}
		switch rng.Intn(4) {
		case 0:
			op.delay = time.Duration(rng.Intn(4)) // same-tick pileups
		case 1:
			op.delay = time.Duration(rng.Intn(2000)) * time.Nanosecond
		case 2:
			op.delay = time.Duration(rng.Intn(200)) * time.Microsecond
		default:
			op.delay = time.Duration(rng.Intn(8)) * time.Millisecond
		}
		op.pick = rng.Int()
		op.horizon = time.Duration(1+rng.Intn(500)) * time.Microsecond
		ops[i] = op
	}
	return ops
}

func weightedKind(rng *rand.Rand) int {
	switch v := rng.Intn(100); {
	case v < 45:
		return 0 // schedule
	case v < 55:
		return 1 // cancel a live event
	case v < 62:
		return 2 // cancel a stale (fired/canceled) ID — ABA probe
	case v < 80:
		return 3 // step
	case v < 90:
		return 4 // run until a horizon
	default:
		return 5 // reschedule: cancel live + schedule replacement
	}
}

// dualDriver applies an op script to one engine — the production Engine
// or a reference model — and records its firings.
type dualDriver struct {
	e       scheduler
	fired   []firing
	live    []EventID
	liveTag []int
	retired []EventID
	nextTag int
}

func (d *dualDriver) OnEvent(now Time, arg EventArg) {
	d.fired = append(d.fired, firing{at: now, tag: int(arg.U64)})
}

func (d *dualDriver) schedule(delay time.Duration) {
	d.track(d.e.AfterSink(delay, d, EventArg{U64: uint64(d.nextTag)}))
}

// scheduleFrom schedules delay after now with its tie-breaking origin
// drawn from [0, now] by pick — the sharded runtime's deferred hand-off
// (AtSinkFrom).
func (d *dualDriver) scheduleFrom(delay time.Duration, pick int) {
	now := d.e.Now()
	origin := Time(uint64(pick) % uint64(now+1))
	d.track(d.e.AtSinkFrom(origin, now.Add(delay), d, EventArg{U64: uint64(d.nextTag)}))
}

func (d *dualDriver) track(id EventID) {
	d.live = append(d.live, id)
	d.liveTag = append(d.liveTag, d.nextTag)
	d.nextTag++
}

// compact drops IDs whose events have fired, moving them to the retired
// list (stale-cancel fodder). Called between ops so the live list stays
// meaningful.
func (d *dualDriver) compact() {
	keep := d.live[:0]
	keepTag := d.liveTag[:0]
	for i, id := range d.live {
		if id.Valid() {
			keep = append(keep, id)
			keepTag = append(keepTag, d.liveTag[i])
		} else {
			d.retired = append(d.retired, id)
		}
	}
	d.live, d.liveTag = keep, keepTag
}

func (d *dualDriver) apply(op dualOp) {
	d.compact()
	switch op.kind {
	case 0:
		d.schedule(op.delay)
	case 1:
		if len(d.live) > 0 {
			i := op.pick % len(d.live)
			d.e.Cancel(d.live[i])
			d.retired = append(d.retired, d.live[i])
			d.live = append(d.live[:i], d.live[i+1:]...)
			d.liveTag = append(d.liveTag[:i], d.liveTag[i+1:]...)
		}
	case 2:
		if len(d.retired) > 0 {
			// Stale cancel: the slot may have been recycled by a newer
			// event — a no-op on both queues (generation check), and on
			// the wheel specifically it must not unlink the slot's new
			// occupant from its bucket chain.
			d.e.Cancel(d.retired[op.pick%len(d.retired)])
		}
	case 3:
		d.e.Step()
	case 4:
		d.e.RunUntil(d.e.Now().Add(op.horizon))
	case 5:
		if len(d.live) > 0 {
			i := op.pick % len(d.live)
			d.e.Cancel(d.live[i])
			d.retired = append(d.retired, d.live[i])
			d.live = append(d.live[:i], d.live[i+1:]...)
			d.liveTag = append(d.liveTag[:i], d.liveTag[i+1:]...)
			d.schedule(op.delay)
		}
	case 6:
		d.scheduleFrom(op.delay, op.pick)
	}
}

// TestWheelHeapIdenticalOrder is the determinism pin for the wheel: for
// randomized schedule/cancel/reschedule/run interleavings, the wheel
// engine fires exactly the events the heap engine fires, at the same
// instants, in the same order.
func TestWheelHeapIdenticalOrder(t *testing.T) {
	seeds := 40
	opsPerSeed := 1500
	if testing.Short() {
		seeds = 10
	}
	for seed := 0; seed < seeds; seed++ {
		ops := genOps(rand.New(rand.NewSource(int64(seed))), opsPerSeed)
		wheelD := &dualDriver{e: NewEngine()}
		heapD := &dualDriver{e: newHeapEngine()}
		for i, op := range ops {
			wheelD.apply(op)
			heapD.apply(op)
			if wheelD.e.Now() != heapD.e.Now() {
				t.Fatalf("seed %d op %d: clocks diverge: wheel %v heap %v", seed, i, wheelD.e.Now(), heapD.e.Now())
			}
			if wheelD.e.Pending() != heapD.e.Pending() {
				t.Fatalf("seed %d op %d: pending diverge: wheel %d heap %d", seed, i, wheelD.e.Pending(), heapD.e.Pending())
			}
		}
		// Drain both completely.
		wheelD.e.Run()
		heapD.e.Run()
		if len(wheelD.fired) != len(heapD.fired) {
			t.Fatalf("seed %d: wheel fired %d events, heap %d", seed, len(wheelD.fired), len(heapD.fired))
		}
		for i := range wheelD.fired {
			if wheelD.fired[i] != heapD.fired[i] {
				t.Fatalf("seed %d: firing %d diverges: wheel %+v heap %+v",
					seed, i, wheelD.fired[i], heapD.fired[i])
			}
		}
	}
}

// TestWheelHeapIdenticalAcrossReset extends the differential pin across
// Engine.Reset: a reset wheel engine (recycled events, rewound cursor)
// must replay a schedule identically to a reset heap engine.
func TestWheelHeapIdenticalAcrossReset(t *testing.T) {
	for seed := 0; seed < 8; seed++ {
		ops := genOps(rand.New(rand.NewSource(int64(1000+seed))), 600)
		wheelD := &dualDriver{e: NewEngine()}
		heapD := &dualDriver{e: newHeapEngine()}
		for round := 0; round < 3; round++ {
			wheelD.fired, heapD.fired = nil, nil
			wheelD.live, wheelD.liveTag, wheelD.retired = nil, nil, nil
			heapD.live, heapD.liveTag, heapD.retired = nil, nil, nil
			wheelD.nextTag, heapD.nextTag = 0, 0
			for _, op := range ops {
				wheelD.apply(op)
				heapD.apply(op)
			}
			wheelD.e.RunUntil(wheelD.e.Now().Add(time.Millisecond))
			heapD.e.RunUntil(heapD.e.Now().Add(time.Millisecond))
			if len(wheelD.fired) != len(heapD.fired) {
				t.Fatalf("seed %d round %d: wheel fired %d, heap %d", seed, round, len(wheelD.fired), len(heapD.fired))
			}
			for i := range wheelD.fired {
				if wheelD.fired[i] != heapD.fired[i] {
					t.Fatalf("seed %d round %d: firing %d diverges", seed, round, i)
				}
			}
			// Reset with events still pending: both engines recycle and
			// must replay the next round identically.
			wheelD.e.Reset()
			heapD.e.Reset()
		}
	}
}

// genDeferredOps is genOps with half of its schedules made
// deferred-origin (kind 6): each takes a tie-breaking origin anywhere in
// [0, now], as the sharded runtime's cross-shard hand-offs do. An origin
// before an already-queued same-deadline event's must fire ahead of it,
// which drives the wheel's keyed level-0 insert (push) and the per-event
// fallback of a level-0 cascade run (cascadeChain).
func genDeferredOps(rng *rand.Rand, n int) []dualOp {
	ops := genOps(rng, n)
	for i := range ops {
		if ops[i].kind == 0 && rng.Intn(2) == 0 {
			ops[i].kind = 6
		}
	}
	return ops
}

// TestWheelDeferredOriginDifferential runs deferred-origin scripts op by
// op on the production engine, the legacy per-event-cascade wheel and the
// reference heap: clocks, pending counts and the complete firing sequence
// must agree, and the production wheel must have taken the keyed
// per-event cascade fallback (its only source of cascadePushes).
func TestWheelDeferredOriginDifferential(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 8
	}
	fallbacks := uint64(0)
	for seed := 0; seed < seeds; seed++ {
		ops := genDeferredOps(rand.New(rand.NewSource(int64(3000+seed))), 1500)
		prod := NewEngine()
		runs := []*dualDriver{{e: prod}, {e: newLegacyCascadeEngine()}, {e: newHeapEngine()}}
		heapD := runs[2]
		for i, op := range ops {
			for _, d := range runs {
				d.apply(op)
			}
			for _, d := range runs[:2] {
				if d.e.Now() != heapD.e.Now() || d.e.Pending() != heapD.e.Pending() {
					t.Fatalf("seed %d op %d: %T at %v with %d pending, heap at %v with %d",
						seed, i, d.e, d.e.Now(), d.e.Pending(), heapD.e.Now(), heapD.e.Pending())
				}
			}
		}
		for _, d := range runs {
			d.e.Run()
		}
		for _, d := range runs[:2] {
			if len(d.fired) != len(heapD.fired) {
				t.Fatalf("seed %d: %T fired %d events, heap %d", seed, d.e, len(d.fired), len(heapD.fired))
			}
			for i := range heapD.fired {
				if d.fired[i] != heapD.fired[i] {
					t.Fatalf("seed %d: firing %d diverges: %T %+v heap %+v", seed, i, d.e, d.fired[i], heapD.fired[i])
				}
			}
		}
		fallbacks += prod.queue.cascadePushes
	}
	if fallbacks == 0 {
		t.Fatal("no level-0 cascade run needed the keyed fallback — script not exercising deferred origins")
	}
}

// TestWheelDeepDeadlines pins placement and cascading for deadlines that
// land on the wheel's top levels: hour-scale and day-scale deltas (the
// hour-long preset regime) interleaved with nanosecond traffic.
func TestWheelDeepDeadlines(t *testing.T) {
	e := NewEngine()
	var got []Time
	rec := func(now Time) { got = append(got, now) }
	after(e, 24*time.Hour, rec)
	after(e, time.Nanosecond, rec)
	after(e, time.Hour, rec)
	after(e, 3*time.Microsecond, rec)
	after(e, time.Hour, rec) // same deep deadline: FIFO pair
	e.Run()
	want := []Time{
		Time(0).Add(time.Nanosecond),
		Time(0).Add(3 * time.Microsecond),
		Time(0).Add(time.Hour),
		Time(0).Add(time.Hour),
		Time(0).Add(24 * time.Hour),
	}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing %d at %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
}

// pendingBench runs the steady-state schedule+fire loop with a constant
// pending population of n events: every Step that fires the earliest
// event is paired with a schedule that replaces it, deltas drawn from a
// deterministic xorshift so both queue implementations (and every run)
// see the identical schedule. Deltas mirror the simulator's real mix —
// mostly µs-scale per-request timers churning over a standing population
// spread across a wide horizon (in-flight requests, hiccups, run-end
// timers). The population is what separates the queues: the heap pays
// O(log n) per operation, the wheel O(1) amortized. The timed loop calls
// the concrete engine type, so neither side pays a dispatch the other
// does not.
func pendingBench(b *testing.B, e scheduler, n int) {
	b.Helper()
	s := &countSink{}
	// Mean inter-deadline spacing of 1µs at any population keeps the
	// deadline density realistic for the simulator's µs-scale traffic.
	horizon := uint64(n) * 1000
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	delta := func() time.Duration {
		v := next()
		if v&7 == 0 {
			return time.Duration(1 + v%horizon) // far timer: run-end, hiccup
		}
		return time.Duration(1 + v%64_000) // near timer: µs-scale request event
	}
	for i := 0; i < n; i++ {
		e.AfterSink(time.Duration(1+next()%horizon), s, EventArg{U64: 1})
	}
	b.ReportAllocs()
	b.ResetTimer()
	switch e := e.(type) {
	case *Engine:
		for i := 0; i < b.N; i++ {
			e.Step()
			e.AfterSink(delta(), s, EventArg{U64: 1})
		}
	case *refEngine:
		for i := 0; i < b.N; i++ {
			e.Step()
			e.AfterSink(delta(), s, EventArg{U64: 1})
		}
	}
	b.StopTimer()
	if e.Pending() != n {
		b.Fatalf("population drifted: %d pending, want %d", e.Pending(), n)
	}
}

func benchmarkEnginePending(b *testing.B, n int) {
	b.Run("wheel", func(b *testing.B) { pendingBench(b, NewEngine(), n) })
	b.Run("heap", func(b *testing.B) { pendingBench(b, newHeapEngine(), n) })
}

// BenchmarkEnginePending{1k,100k,1M} measure one schedule+fire at a
// steady pending population — the regime the ROADMAP's million-QPS and
// hour-long scenarios put the engine in (pending ≈ in-flight requests ×
// per-request timers). Run with -benchmem: both paths must be 0 B/op in
// steady state.
func BenchmarkEnginePending1k(b *testing.B)   { benchmarkEnginePending(b, 1_000) }
func BenchmarkEnginePending100k(b *testing.B) { benchmarkEnginePending(b, 100_000) }
func BenchmarkEnginePending1M(b *testing.B)   { benchmarkEnginePending(b, 1_000_000) }

// measurePending times one steady-state schedule+fire at population n
// via the benchmark harness and reports ns/op and bytes/op.
func measurePending[E scheduler](newEngine func() E, n int) (nsPerOp float64, bytesPerOp int64) {
	res := testing.Benchmark(func(b *testing.B) { pendingBench(b, newEngine(), n) })
	return float64(res.T.Nanoseconds()) / float64(res.N), res.AllocedBytesPerOp()
}

// TestWheelFasterThanHeapAt100kPending is the acceptance gate for the
// wheel: at a 100k pending population, schedule+fire must be at least 2×
// faster than the heap (measured ~5-6×; the 2× bar absorbs host noise)
// with zero steady-state allocations. Retries absorb scheduler hiccups
// on loaded CI hosts.
func TestWheelFasterThanHeapAt100kPending(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate: skipped in -short")
	}
	const n = 100_000
	var wheelNs, heapNs float64
	for attempt := 0; attempt < 3; attempt++ {
		var wheelB, heapB int64
		wheelNs, wheelB = measurePending(NewEngine, n)
		heapNs, heapB = measurePending(newHeapEngine, n)
		if wheelB != 0 || heapB != 0 {
			t.Fatalf("steady state allocates: wheel %d B/op, heap %d B/op, want 0", wheelB, heapB)
		}
		if heapNs >= 2*wheelNs {
			t.Logf("pending=100k: wheel %.1f ns/op, heap %.1f ns/op (%.1f×)", wheelNs, heapNs, heapNs/wheelNs)
			return
		}
	}
	t.Errorf("pending=100k: wheel %.1f ns/op vs heap %.1f ns/op — below the 2× bar", wheelNs, heapNs)
}

// TestWheelNoSlowerThanHeapAt1kPending guards the small-population end:
// the wheel's constant factor must not regress the common case where the
// heap's O(log n) is still cheap. The 1.15 tolerance absorbs run-to-run
// host noise; the wheel typically wins outright here too.
func TestWheelNoSlowerThanHeapAt1kPending(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate: skipped in -short")
	}
	const n = 1_000
	var wheelNs, heapNs float64
	for attempt := 0; attempt < 3; attempt++ {
		wheelNs, _ = measurePending(NewEngine, n)
		heapNs, _ = measurePending(newHeapEngine, n)
		if wheelNs <= heapNs*1.15 {
			t.Logf("pending=1k: wheel %.1f ns/op, heap %.1f ns/op", wheelNs, heapNs)
			return
		}
	}
	t.Errorf("pending=1k: wheel %.1f ns/op vs heap %.1f ns/op — wheel slower than the heap at small populations", wheelNs, heapNs)
}
