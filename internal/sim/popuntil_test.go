package sim

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"time"
)

// This file pins the bounded pop (wheel.popUntil) behind Step, RunUntil
// and RunBefore: a differential test and a fuzz target against the
// reference heap with run limits aimed at the wheel's bucket structure,
// and a work-counter gate showing that most pops above level 0 skip the
// cascade on an open-loop request shape.

// Run-limit op kinds, beyond dualOp's 0–6: the limit is chosen from the
// production wheel's state when the op is applied (limitFor).
const (
	opRunUntilAt  = 7
	opRunBeforeAt = 8
)

// genLimitOps builds a script of AfterSink, AtSinkFrom and Cancel ops
// interleaved with RunUntil and RunBefore at chosen limits. Delays mix
// same-tick pileups with deadlines up to seconds away, so the lowest
// occupied bucket is often above level 0 and often holds several events.
func genLimitOps(rng *rand.Rand, n int) []dualOp {
	ops := make([]dualOp, n)
	for i := range ops {
		op := dualOp{pick: rng.Int()}
		switch v := rng.Intn(100); {
		case v < 30:
			op.kind = 0
		case v < 45:
			op.kind = 6
		case v < 55:
			op.kind = 1
		case v < 60:
			op.kind = 2
		case v < 80:
			op.kind = opRunUntilAt
		default:
			op.kind = opRunBeforeAt
		}
		switch rng.Intn(5) {
		case 0:
			op.delay = time.Duration(rng.Intn(4))
		case 1:
			op.delay = time.Duration(rng.Intn(5000))
		case 2:
			op.delay = time.Duration(rng.Intn(300)) * time.Microsecond
		case 3:
			op.delay = time.Duration(rng.Intn(20)) * time.Millisecond
		default:
			op.delay = time.Duration(rng.Int63n(int64(2 * time.Second)))
		}
		op.horizon = time.Duration(1 + rng.Intn(200_000))
		ops[i] = op
	}
	return ops
}

// Limit classes limitFor chooses between.
const (
	limitBucketStart  = iota // the lowest occupied higher-level bucket's start instant
	limitInsideBucket        // strictly inside that bucket, before its first deadline
	limitOnDeadline          // exactly a pending event's deadline
	limitHorizon             // now plus the op's horizon
	limitClasses
)

// limitFor returns the run limit for op and its class, read from the
// production wheel before either engine runs it. The bucket classes fall
// back to the horizon when the lowest occupied bucket is at level 0 or,
// for limitInsideBucket, when its first deadline is its start.
func limitFor(w *wheel, d *dualDriver, op dualOp) (Time, int) {
	now := d.e.Now()
	class := op.pick % limitClasses
	switch class {
	case limitBucketStart, limitInsideBucket:
		if w.levelMask == 0 {
			break
		}
		l := bits.TrailingZeros16(w.levelMask)
		if l == 0 {
			break
		}
		start := w.bucketStart(l, bits.TrailingZeros64(w.occupied[l]))
		if class == limitBucketStart {
			return start, class
		}
		first, _ := w.minDeadline()
		if first > start+1 {
			return start + 1 + Time(uint64(op.pick>>2)%uint64(first-start-1)), class
		}
	case limitOnDeadline:
		if len(d.live) > 0 {
			if id := d.live[(op.pick>>2)%len(d.live)]; id.Valid() {
				return id.ev.deadline, class
			}
		}
	}
	return now.Add(op.horizon), limitHorizon
}

// limitRunStats counts what a script exercised.
type limitRunStats struct {
	classes            [limitClasses]int
	lonePops, cascades uint64
}

// checkRunLimits runs ops op by op on the production engine and the
// reference heap. After every op the clocks and pending counts must
// agree and the wheel's cursor must not pass the clock; at the end both
// engines are drained and their complete firing sequences must match.
func checkRunLimits(t testing.TB, ops []dualOp) limitRunStats {
	t.Helper()
	prod := NewEngine()
	prodD := &dualDriver{e: prod}
	heapD := &dualDriver{e: newHeapEngine()}
	var st limitRunStats
	for i, op := range ops {
		if op.kind == opRunUntilAt || op.kind == opRunBeforeAt {
			prodD.compact()
			heapD.compact()
			limit, class := limitFor(&prod.queue, prodD, op)
			st.classes[class]++
			if op.kind == opRunUntilAt {
				prodD.e.RunUntil(limit)
				heapD.e.RunUntil(limit)
			} else {
				prodD.e.RunBefore(limit)
				heapD.e.RunBefore(limit)
			}
		} else {
			prodD.apply(op)
			heapD.apply(op)
		}
		if prod.Now() != heapD.e.Now() || prod.Pending() != heapD.e.Pending() {
			t.Fatalf("op %d (%+v): wheel at %v with %d pending, heap at %v with %d",
				i, op, prod.Now(), prod.Pending(), heapD.e.Now(), heapD.e.Pending())
		}
		if len(prodD.fired) != len(heapD.fired) {
			t.Fatalf("op %d (%+v): wheel fired %d events, heap %d", i, op, len(prodD.fired), len(heapD.fired))
		}
		if prod.queue.cursor > prod.Now() {
			t.Fatalf("op %d (%+v): wheel cursor %v passed the clock %v", i, op, prod.queue.cursor, prod.Now())
		}
	}
	prodD.e.Run()
	heapD.e.Run()
	if len(prodD.fired) != len(heapD.fired) {
		t.Fatalf("drained: wheel fired %d events, heap %d", len(prodD.fired), len(heapD.fired))
	}
	for i := range heapD.fired {
		if prodD.fired[i] != heapD.fired[i] {
			t.Fatalf("firing %d diverges: wheel %+v heap %+v", i, prodD.fired[i], heapD.fired[i])
		}
	}
	st.lonePops, st.cascades = prod.queue.lonePops, prod.queue.cascades
	return st
}

// TestPopUntilDifferential runs limit-aimed scripts against the heap and
// checks that every limit class and both pop paths above level 0 — the
// lone pop and the cascade — were exercised.
func TestPopUntilDifferential(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 8
	}
	var total limitRunStats
	for seed := 0; seed < seeds; seed++ {
		st := checkRunLimits(t, genLimitOps(rand.New(rand.NewSource(int64(9000+seed))), 1500))
		for c, n := range st.classes {
			total.classes[c] += n
		}
		total.lonePops += st.lonePops
		total.cascades += st.cascades
	}
	for c, n := range total.classes {
		if n == 0 {
			t.Errorf("limit class %d never chosen: %v", c, total.classes)
		}
	}
	t.Logf("limit classes %v; %d lone pops, %d cascades", total.classes, total.lonePops, total.cascades)
	if total.lonePops == 0 || total.cascades == 0 {
		t.Errorf("lone pops %d, cascades %d: want both paths exercised", total.lonePops, total.cascades)
	}
}

// TestPopUntilEdges pins the limit edges by hand: a bucket above level 0
// holding two events, run to just before its start, to its start, inside
// it before the first deadline, and exactly on each deadline.
func TestPopUntilEdges(t *testing.T) {
	e := NewEngine()
	d := &dualDriver{e: e}
	// Deadlines 1000 and 1010 share the level-1 bucket [960, 1024).
	e.AfterSink(1000, d, EventArg{U64: 1})
	e.AfterSink(1010, d, EventArg{U64: 2})
	steps := []struct {
		before     bool
		limit      Time
		wantFired  int
		wantCursor Time
	}{
		{false, 959, 0, 0},     // before the bucket: no cascade
		{false, 960, 0, 960},   // on its start: cascade, nothing due
		{false, 999, 0, 960},   // inside, before the first deadline
		{true, 1000, 0, 960},   // RunBefore excludes the deadline itself
		{false, 1000, 1, 1000}, // on the first deadline
		{true, 1011, 2, 1010},  // RunBefore one past the second
	}
	for i, s := range steps {
		if s.before {
			e.RunBefore(s.limit)
		} else {
			e.RunUntil(s.limit)
		}
		if len(d.fired) != s.wantFired || e.queue.cursor != s.wantCursor || e.Now() != s.limit {
			t.Fatalf("step %d: fired %d cursor %v now %v, want %d, %v, %v",
				i, len(d.fired), e.queue.cursor, e.Now(), s.wantFired, s.wantCursor, s.limit)
		}
	}
	// A lone event above level 0 pops in place, without a cascade.
	e.AfterSink(5000, d, EventArg{U64: 3})
	e.RunUntil(e.Now() + 4999)
	if len(d.fired) != 2 || e.queue.lonePops != 0 {
		t.Fatalf("lone event fired early: %d fired, %d lone pops", len(d.fired), e.queue.lonePops)
	}
	cascades := e.queue.cascades
	e.RunUntil(e.Now() + 1)
	if len(d.fired) != 3 || e.queue.lonePops != 1 || e.queue.cascades != cascades {
		t.Fatalf("lone event: %d fired, %d lone pops, %d cascades (was %d)",
			len(d.fired), e.queue.lonePops, e.queue.cascades, cascades)
	}
	// RunUntil(Infinity) reaches the last representable instant.
	e.AfterSink(time.Duration(math.MaxInt64-int64(e.Now())), d, EventArg{U64: 4})
	e.RunUntil(Infinity)
	if len(d.fired) != 4 || e.Now() != Infinity {
		t.Fatalf("RunUntil(Infinity): %d fired, now %v", len(d.fired), e.Now())
	}
}

// FuzzRunLimits checks the bounded pop against the reference heap on
// scripts from genLimitOps. Run it with
//
//	go test -run '^$' -fuzz '^FuzzRunLimits$' -fuzztime 15s ./internal/sim
func FuzzRunLimits(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42, 9001} {
		f.Add(seed, uint16(400))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		checkRunLimits(t, genLimitOps(rand.New(rand.NewSource(seed)), int(n%2000)))
	})
}

// openLoopWorld is a request-shaped event source at a fixed arrival
// rate: each arrival schedules the next after an exponential gap, sends
// the request across a network hop of 10–40 µs, serves it for 2–10 µs
// and returns it across another hop, and arms a 2 ms timeout that the
// response cancels.
type openLoopWorld struct {
	e        *Engine
	meanGap  float64 // ns
	rng      uint64
	timeouts []EventID // ring of armed timeouts, indexed by request number
	next     uint64
	done     int
}

const (
	olArrival = iota
	olDeliver
	olServed
	olResponse
	olTimeout
)

func (w *openLoopWorld) rand() uint64 {
	w.rng ^= w.rng << 13
	w.rng ^= w.rng >> 7
	w.rng ^= w.rng << 17
	return w.rng
}

func (w *openLoopWorld) uniform(lo, hi time.Duration) time.Duration {
	return lo + time.Duration(w.rand()%uint64(hi-lo))
}

func (w *openLoopWorld) OnEvent(_ Time, arg EventArg) {
	req := arg.U64 >> 8
	switch arg.U64 & 0xff {
	case olArrival:
		u := float64(w.rand()>>11+1) / (1 << 53)
		w.e.AfterSink(time.Duration(-math.Log(u)*w.meanGap), w, EventArg{U64: olArrival})
		id := w.next
		w.next++
		w.e.AfterSink(w.uniform(10*time.Microsecond, 40*time.Microsecond), w, EventArg{U64: id<<8 | olDeliver})
		w.timeouts[id%uint64(len(w.timeouts))] = w.e.AfterSink(2*time.Millisecond, w, EventArg{U64: id<<8 | olTimeout})
	case olDeliver:
		w.e.AfterSink(w.uniform(2*time.Microsecond, 10*time.Microsecond), w, EventArg{U64: req<<8 | olServed})
	case olServed:
		w.e.AfterSink(w.uniform(10*time.Microsecond, 40*time.Microsecond), w, EventArg{U64: req<<8 | olResponse})
	case olResponse:
		w.e.Cancel(w.timeouts[req%uint64(len(w.timeouts))])
		w.done++
	}
}

// TestPopUntilSkipsCascadeAt400kQPS is the work-counter gate for the
// lone pop: on a 400K-QPS request shape the earliest pending event is
// usually alone in its bucket above level 0, so most pops that reach a
// higher level take it in place. The counters depend only on the event
// schedule, not on the host.
func TestPopUntilSkipsCascadeAt400kQPS(t *testing.T) {
	e := NewEngine()
	w := &openLoopWorld{e: e, meanGap: 1e9 / 400e3, rng: 0x9E3779B97F4A7C15, timeouts: make([]EventID, 4096)}
	e.AfterSink(0, w, EventArg{U64: olArrival})
	e.RunUntil(Time(50 * time.Millisecond))
	q := &e.queue
	if w.done < 15_000 {
		t.Fatalf("only %d requests completed in 50 ms at 400K QPS", w.done)
	}
	if q.lonePops <= q.cascades {
		t.Errorf("lone pops %d vs cascades %d over %d events: want most higher-level pops to skip the cascade",
			q.lonePops, q.cascades, e.Fired())
	}
	t.Logf("%d events fired: %d lone pops, %d cascades (%d events walked)",
		e.Fired(), q.lonePops, q.cascades, q.cascadeEvents)
}
