// Package sim provides the deterministic discrete-event simulation engine
// that underlies the multicore machine and operating-system models. All
// simulated activity is driven by a virtual clock in nanoseconds; wall-clock
// time never enters the simulation, so any run is exactly reproducible from
// its seed.
package sim

import "fmt"

// Time is a virtual timestamp in nanoseconds since the start of simulation.
type Time int64

// Common durations expressed in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts a Time to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts a Time to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Event is a scheduled callback. Events are single-shot; cancelling an event
// that already fired is a no-op.
type Event struct {
	at        Time
	seq       uint64
	fn        func()
	index     int // heap index, -1 when not queued
	cancelled bool
}

// Pending reports whether the event is still queued and not cancelled.
func (e *Event) Pending() bool { return e != nil && e.index >= 0 && !e.cancelled }

// before is the queue's total order: time, then scheduling sequence. Every
// event's (at, seq) key is unique, so the dispatch order is a property of
// the schedule alone, never of the heap's internal layout.
func (e *Event) before(o *Event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; the whole simulation runs on one goroutine by design so
// that event ordering is total and deterministic.
//
// The queue is a hand-rolled 4-ary min-heap over (at, seq): the wider fanout
// halves the tree depth of the binary heap and the monomorphic *Event
// methods avoid container/heap's interface dispatch on every sift — the
// queue is the hottest structure in the kernel exec loop.
type Engine struct {
	now        Time
	queue      []*Event
	seq        uint64
	stopped    bool
	dispatched uint64
}

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine { return &Engine{} }

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at virtual time t. Scheduling in the past (or at the
// present instant) runs the event at the current time, ordered after events
// already scheduled for that time.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev := &Event{at: t, seq: e.seq, fn: fn, index: -1}
	e.push(ev)
	return ev
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) *Event { return e.At(e.now+d, fn) }

// Cancel removes ev from the queue. Safe to call on nil, fired, or already
// cancelled events.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.cancelled {
		return
	}
	ev.cancelled = true
	if ev.index >= 0 {
		e.remove(ev.index)
	}
}

// Step runs the earliest pending event, advancing the clock to its time.
// It reports whether an event ran.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := e.pop()
		if ev.cancelled {
			continue
		}
		e.now = ev.at
		e.dispatched++
		ev.fn()
		return true
	}
	return false
}

// Run executes events until the queue is empty, the clock passes until, or
// Stop is called. The clock is left at the time of the last event executed
// (or at until, whichever is smaller, if the horizon was hit).
func (e *Engine) Run(until Time) {
	e.stopped = false
	for !e.stopped {
		if len(e.queue) == 0 {
			return
		}
		next := e.queue[0].at
		if next > until {
			e.now = until
			return
		}
		e.Step()
	}
}

// RunAll executes events until the queue is empty or Stop is called.
func (e *Engine) RunAll() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// Stop halts Run/RunAll after the current event returns.
func (e *Engine) Stop() { e.stopped = true }

// Dispatched reports the total number of events executed so far — the
// observability layer's "events dispatched" counter.
func (e *Engine) Dispatched() uint64 { return e.dispatched }

// --- 4-ary heap primitives ---

const heapArity = 4

func (e *Engine) push(ev *Event) {
	ev.index = len(e.queue)
	e.queue = append(e.queue, ev)
	e.up(ev.index)
}

func (e *Engine) pop() *Event {
	q := e.queue
	root := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[0].index = 0
	q[n] = nil
	e.queue = q[:n]
	if n > 0 {
		e.down(0)
	}
	root.index = -1
	return root
}

// remove deletes the event at heap index i.
func (e *Engine) remove(i int) {
	q := e.queue
	n := len(q) - 1
	ev := q[i]
	if i != n {
		q[i] = q[n]
		q[i].index = i
	}
	q[n] = nil
	e.queue = q[:n]
	if i < n {
		e.fix(i)
	}
	ev.index = -1
}

// fix restores the heap invariant after the key at index i changed.
func (e *Engine) fix(i int) {
	if !e.down(i) {
		e.up(i)
	}
}

func (e *Engine) up(i int) {
	q := e.queue
	ev := q[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		if !ev.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].index = i
		i = parent
	}
	q[i] = ev
	ev.index = i
}

// down sifts the event at index i toward the leaves, reporting whether it
// moved.
func (e *Engine) down(i int) bool {
	q := e.queue
	n := len(q)
	ev := q[i]
	start := i
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q[c].before(q[min]) {
				min = c
			}
		}
		if !q[min].before(ev) {
			break
		}
		q[i] = q[min]
		q[i].index = i
		i = min
	}
	q[i] = ev
	ev.index = i
	return i != start
}

// Timer is a caller-owned, reusable one-shot timer: a single Event
// allocation re-armed for the lifetime of its owner. The kernel's per-core
// quantum and execution-breakpoint timers, the sampling layer's backup
// interrupts, and per-thread I/O wakeups re-schedule millions of times per
// run; routing them through After would allocate an Event (and usually a
// closure) each time, which is the dominant allocation of the whole
// simulator. A Timer arms in place instead — repositioning its event inside
// the heap when it is still queued — so the steady state allocates nothing.
//
// Each Arm consumes exactly one scheduling sequence number, the same as the
// After call it replaces, so converting a call site preserves the engine's
// event dispatch order bit-for-bit.
//
// The timer's event must never be shared: Arm/Stop assume exclusive
// ownership, which is what makes reuse safe (there is no stale *Event handle
// that could cancel an innocent reused event).
type Timer struct {
	eng *Engine
	ev  Event
}

// NewTimer returns an unarmed timer that runs fn when it fires.
func (e *Engine) NewTimer(fn func()) *Timer {
	t := &Timer{eng: e}
	t.ev.fn = fn
	t.ev.index = -1
	return t
}

// Arm schedules the timer d nanoseconds from now, replacing any pending
// arming.
func (t *Timer) Arm(d Time) { t.ArmAt(t.eng.now + d) }

// ArmAt schedules the timer at virtual time at, replacing any pending
// arming. Like Engine.At, times in the past clamp to the present.
func (t *Timer) ArmAt(at Time) {
	e := t.eng
	if at < e.now {
		at = e.now
	}
	e.seq++
	ev := &t.ev
	ev.at, ev.seq, ev.cancelled = at, e.seq, false
	if ev.index >= 0 {
		e.fix(ev.index)
	} else {
		e.push(ev)
	}
}

// Stop cancels a pending arming. Safe to call on an unarmed or fired timer.
func (t *Timer) Stop() {
	ev := &t.ev
	ev.cancelled = true
	if ev.index >= 0 {
		t.eng.remove(ev.index)
	}
}

// Pending reports whether the timer is armed and not yet fired.
func (t *Timer) Pending() bool { return t.ev.Pending() }
