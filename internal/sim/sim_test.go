package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("new engine clock = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("new engine pending = %d, want 0", e.Pending())
	}
}

func TestAfterAdvancesClock(t *testing.T) {
	e := NewEngine()
	var fired Time = -1
	after(e, 5*time.Microsecond, func(now Time) { fired = now })
	e.Run()
	if fired != Time(5000) {
		t.Errorf("event fired at %v, want 5µs", fired)
	}
	if e.Now() != Time(5000) {
		t.Errorf("clock = %v, want 5µs", e.Now())
	}
}

func TestEventOrderingByDeadline(t *testing.T) {
	e := NewEngine()
	var order []int
	after(e, 30*time.Nanosecond, func(Time) { order = append(order, 3) })
	after(e, 10*time.Nanosecond, func(Time) { order = append(order, 1) })
	after(e, 20*time.Nanosecond, func(Time) { order = append(order, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestFIFOTieBreaking(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		atTime(e, Time(42), func(Time) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-deadline events fired out of scheduling order at %d: got %d", i, v)
		}
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	id := after(e, time.Microsecond, func(Time) { fired = true })
	e.Cancel(id)
	e.Run()
	if fired {
		t.Error("canceled event fired")
	}
	// Cancel of an already-canceled event must be a no-op.
	e.Cancel(id)
	// Cancel of the zero ID must be a no-op.
	e.Cancel(EventID{})
}

func TestCancelOneOfMany(t *testing.T) {
	e := NewEngine()
	var fired []int
	var ids []EventID
	for i := 0; i < 10; i++ {
		i := i
		ids = append(ids, after(e, time.Duration(i+1)*time.Microsecond, func(Time) {
			fired = append(fired, i)
		}))
	}
	e.Cancel(ids[3])
	e.Cancel(ids[7])
	e.Run()
	if len(fired) != 8 {
		t.Fatalf("fired %d events, want 8", len(fired))
	}
	for _, v := range fired {
		if v == 3 || v == 7 {
			t.Errorf("canceled event %d fired", v)
		}
	}
}

func TestEventSchedulingFromHandler(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	var tick func(now Time)
	tick = func(now Time) {
		ticks = append(ticks, now)
		if len(ticks) < 5 {
			after(e, time.Millisecond, tick)
		}
	}
	after(e, time.Millisecond, tick)
	e.Run()
	if len(ticks) != 5 {
		t.Fatalf("got %d ticks, want 5", len(ticks))
	}
	for i, tk := range ticks {
		want := Time(int64(i+1) * 1e6)
		if tk != want {
			t.Errorf("tick %d at %v, want %v", i, tk, want)
		}
	}
}

func TestRunUntilStopsAtLimit(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for i := 1; i <= 10; i++ {
		after(e, time.Duration(i)*time.Second, func(now Time) { fired = append(fired, now) })
	}
	e.RunUntil(Time(4_500_000_000))
	if len(fired) != 4 {
		t.Fatalf("fired %d events before limit, want 4", len(fired))
	}
	if e.Now() != Time(4_500_000_000) {
		t.Errorf("clock after RunUntil = %v, want 4.5s", e.Now())
	}
	if e.Pending() != 6 {
		t.Errorf("pending after RunUntil = %d, want 6", e.Pending())
	}
	e.Run()
	if len(fired) != 10 {
		t.Errorf("after Run, fired = %d, want 10", len(fired))
	}
}

func TestRunForIsRelative(t *testing.T) {
	e := NewEngine()
	e.RunFor(time.Second)
	if e.Now() != Time(1e9) {
		t.Fatalf("clock = %v, want 1s", e.Now())
	}
	e.RunFor(time.Second)
	if e.Now() != Time(2e9) {
		t.Fatalf("clock = %v, want 2s", e.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	after(e, time.Second, func(Time) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	atTime(e, Time(1), func(Time) {})
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	after(e, -time.Second, func(Time) {})
}

func TestFiredCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 25; i++ {
		after(e, time.Duration(i)*time.Microsecond, func(Time) {})
	}
	e.Run()
	if e.Fired() != 25 {
		t.Errorf("Fired() = %d, want 25", e.Fired())
	}
}

func TestTimeArithmetic(t *testing.T) {
	var base Time = 1000
	got := base.Add(2 * time.Microsecond)
	if got != 3000 {
		t.Errorf("Add = %v, want 3000", got)
	}
	if got.Sub(base) != 2*time.Microsecond {
		t.Errorf("Sub = %v, want 2µs", got.Sub(base))
	}
	if Time(2.5e9).Seconds() != 2.5 {
		t.Errorf("Seconds = %v, want 2.5", Time(2.5e9).Seconds())
	}
	if Time(1500).Microseconds() != 1.5 {
		t.Errorf("Microseconds = %v, want 1.5", Time(1500).Microseconds())
	}
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing deadline order and the clock never moves backwards.
func TestPropertyMonotonicClock(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var last Time = -1
		ok := true
		for _, d := range delays {
			after(e, time.Duration(d)*time.Nanosecond, func(now Time) {
				if now < last {
					ok = false
				}
				last = now
			})
		}
		e.Run()
		return ok && e.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: two engines fed the same schedule produce identical firing
// sequences (determinism).
func TestPropertyDeterminism(t *testing.T) {
	f := func(delays []uint16) bool {
		run := func() []Time {
			e := NewEngine()
			var seq []Time
			for _, d := range delays {
				after(e, time.Duration(d)*time.Nanosecond, func(now Time) { seq = append(seq, now) })
			}
			e.Run()
			return seq
		}
		a, b := run(), run()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// after schedules fn(now) d after e's clock through a func sink.
func after(e *Engine, d time.Duration, fn func(now Time)) EventID {
	return e.AfterSink(d, sinkFunc(func(now Time, _ EventArg) { fn(now) }), EventArg{})
}

// atTime schedules fn(now) at the instant t through a func sink.
func atTime(e *Engine, t Time, fn func(now Time)) EventID {
	return e.AtSink(t, sinkFunc(func(now Time, _ EventArg) { fn(now) }), EventArg{})
}
