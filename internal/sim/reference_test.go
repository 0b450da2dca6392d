package sim

import (
	"container/heap"
	"fmt"
	"math/bits"
	"time"
)

// This file holds the reference event queues the production wheel is
// differential-tested and timed against: the binary min-heap the engine
// used before the wheel, and the wheel's earlier per-event cascade. Both
// run under refEngine, a model of the engine as it was when it drove
// either queue through an interface — the same free list with generation
// bumps, the same queue dispatch through an interface, the same sink
// dispatch — so the timing gates compare the production engine against
// exactly the work the old engine did per operation.

// refQueue is the queue contract refEngine drives: pop returns the
// (deadline, at, seq)-minimal event; minDeadline reports its deadline
// without popping; remove detaches an event known to be queued; drain
// empties the queue through the callback and rewinds any internal clock.
type refQueue interface {
	push(ev *event)
	pop() *event
	minDeadline() (Time, bool)
	remove(ev *event)
	size() int
	drain(release func(*event))
}

// eventHeap is a min-heap ordered by (deadline, at, seq). Each event's
// index field holds its heap slot.
type eventHeap []*event

func (q eventHeap) Len() int { return len(q) }

func (q eventHeap) Less(i, j int) bool { return q[i].less(q[j]) }

func (q eventHeap) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *eventHeap) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}

// heapQueue adapts eventHeap to refQueue.
type heapQueue struct{ h eventHeap }

func (q *heapQueue) push(ev *event) { heap.Push(&q.h, ev) }

func (q *heapQueue) pop() *event {
	if len(q.h) == 0 {
		return nil
	}
	return heap.Pop(&q.h).(*event)
}

func (q *heapQueue) minDeadline() (Time, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].deadline, true
}

func (q *heapQueue) remove(ev *event) { heap.Remove(&q.h, ev.index) }

func (q *heapQueue) size() int { return len(q.h) }

func (q *heapQueue) drain(release func(*event)) {
	for _, ev := range q.h {
		ev.index = -1
		release(ev)
	}
	q.h = q.h[:0]
}

// legacyWheel is the wheel before cascade hysteresis: placement, push
// and remove are the production wheel's, but pop cascades a bucket by
// re-pushing its chain one event at a time instead of splicing
// same-destination runs (cascadeChain).
type legacyWheel struct{ wheel }

func (w *legacyWheel) pop() *event {
	for w.levelMask != 0 {
		l := bits.TrailingZeros16(w.levelMask)
		slot := bits.TrailingZeros64(w.occupied[l])
		b := &w.levels[l][slot]
		if l == 0 {
			ev := b.head
			b.head = ev.next
			if b.head == nil {
				b.tail = nil
				w.clearSlot(0, slot)
			} else {
				b.head.prev = nil
			}
			ev.next, ev.prev = nil, nil
			w.count--
			w.cursor = ev.deadline
			return ev
		}
		head := b.head
		b.head, b.tail = nil, nil
		w.clearSlot(l, slot)
		w.cursor = w.bucketStart(l, slot)
		w.cascades++
		for ev := head; ev != nil; {
			next := ev.next
			ev.next, ev.prev = nil, nil
			w.count--
			w.cascadeEvents++
			w.cascadePushes++
			w.push(ev)
			ev = next
		}
	}
	return nil
}

// refEngine is the engine model the reference queues run under. Its
// scheduling, cancellation and firing semantics are the production
// Engine's; only the queue differs.
type refEngine struct {
	now     Time
	queue   refQueue
	free    []*event
	nextSeq uint64
	fired   uint64
	grown   uint64
}

// newHeapEngine returns the reference engine on the binary heap.
func newHeapEngine() *refEngine { return &refEngine{queue: &heapQueue{}} }

// newLegacyCascadeEngine returns the reference engine on the per-event
// cascade wheel.
func newLegacyCascadeEngine() *refEngine { return &refEngine{queue: &legacyWheel{}} }

func (e *refEngine) Now() Time    { return e.now }
func (e *refEngine) Pending() int { return e.queue.size() }

func (e *refEngine) Reset() {
	e.queue.drain(e.release)
	e.now = 0
	e.nextSeq = 0
	e.fired = 0
}

func (e *refEngine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	e.grown++
	return &event{}
}

func (e *refEngine) release(ev *event) {
	ev.gen++
	ev.sink = nil
	ev.arg = EventArg{}
	e.free = append(e.free, ev)
}

func (e *refEngine) schedule(origin, t Time, sink EventSink, arg EventArg) EventID {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.alloc()
	ev.deadline = t
	ev.at = origin
	ev.seq = e.nextSeq
	ev.sink = sink
	ev.arg = arg
	e.nextSeq++
	e.queue.push(ev)
	return EventID{ev: ev, gen: ev.gen}
}

func (e *refEngine) AtSink(t Time, sink EventSink, arg EventArg) EventID {
	if sink == nil {
		panic("sim: nil event sink")
	}
	return e.schedule(e.now, t, sink, arg)
}

func (e *refEngine) AtSinkFrom(origin, t Time, sink EventSink, arg EventArg) EventID {
	if sink == nil {
		panic("sim: nil event sink")
	}
	if origin > t {
		panic(fmt.Sprintf("sim: schedule origin %v after deadline %v", origin, t))
	}
	return e.schedule(origin, t, sink, arg)
}

func (e *refEngine) AfterSink(d time.Duration, sink EventSink, arg EventArg) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.AtSink(e.now.Add(d), sink, arg)
}

func (e *refEngine) Cancel(id EventID) {
	ev := id.ev
	if ev == nil || ev.gen != id.gen {
		return
	}
	e.queue.remove(ev)
	e.release(ev)
}

func (e *refEngine) Step() bool {
	ev := e.queue.pop()
	if ev == nil {
		return false
	}
	sink, arg, deadline := ev.sink, ev.arg, ev.deadline
	e.release(ev)
	e.now = deadline
	e.fired++
	sink.OnEvent(e.now, arg)
	return true
}

func (e *refEngine) Run() {
	for e.Step() {
	}
}

func (e *refEngine) RunUntil(limit Time) {
	for {
		d, ok := e.queue.minDeadline()
		if !ok || d > limit {
			break
		}
		e.Step()
	}
	if e.now < limit {
		e.now = limit
	}
}

func (e *refEngine) RunBefore(limit Time) {
	for {
		d, ok := e.queue.minDeadline()
		if !ok || d >= limit {
			break
		}
		e.Step()
	}
	if e.now < limit {
		e.now = limit
	}
}

// scheduler is the engine surface the differential tests and timing
// gates use; the production *Engine and the *refEngine model both
// implement it.
type scheduler interface {
	Now() Time
	Pending() int
	AfterSink(d time.Duration, sink EventSink, arg EventArg) EventID
	AtSinkFrom(origin, t Time, sink EventSink, arg EventArg) EventID
	Cancel(id EventID)
	Step() bool
	Run()
	RunUntil(limit Time)
	RunBefore(limit Time)
	Reset()
}
