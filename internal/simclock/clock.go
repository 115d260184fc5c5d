// Package simclock provides the deterministic discrete-event engine that
// drives every simulation in this repository.
//
// All timing in the SATIN reproduction is virtual: nothing sleeps, and a
// simulated second costs only as much wall time as the events scheduled
// within it. Virtual instants are represented by Time (nanoseconds since
// simulation boot) and spans by the standard time.Duration, so simulator
// code reads like ordinary Go time code while remaining fully repeatable.
//
// Determinism guarantees:
//
//   - Events fire in (time, sequence) order; two events scheduled for the
//     same instant fire in the order they were scheduled.
//   - All randomness flows through RNG streams derived from a single seed
//     (see rng.go), one named stream per component.
//   - The engine is single-goroutine; simulated concurrency (six CPU cores,
//     many threads) is modeled, never executed in parallel.
package simclock

import (
	"fmt"
	"time"
)

// Time is an instant in virtual time, expressed as nanoseconds since the
// simulation booted. The zero Time is the boot instant.
type Time int64

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the span t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Seconds reports t as floating-point seconds since boot.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

// Duration reports t as the span since boot.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Before reports whether t precedes u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t follows u.
func (t Time) After(u Time) bool { return t > u }

// String formats t like a time.Duration measured from boot, e.g. "1.5s".
func (t Time) String() string { return time.Duration(t).String() }

// Engine is a discrete-event simulation engine. The zero value is not
// usable; construct one with NewEngine.
type Engine struct {
	now        Time
	queue      eventQueue
	nextSeq    uint64
	dispatched uint64
	stopped    bool
	// free holds fired or discarded event structs for reuse, so steady-state
	// scheduling allocates nothing. Events carry a generation counter bumped
	// on recycle; Handles snapshot it so a stale Handle can never cancel the
	// struct's next occupant.
	free []*event
	// canceledPending counts canceled events still sitting in the heap.
	// When they pile up (see maybeCompact) the queue is compacted in one
	// pass so churny cancel-heavy workloads keep the heap bounded by the
	// number of live events.
	canceledPending int
}

// compactMinCanceled is the floor below which compaction is never worth the
// linear pass. Above it, compaction triggers once canceled events outnumber
// live ones (see maybeCompact).
const compactMinCanceled = 64

// NewEngine returns an engine with the clock at the boot instant and an
// empty event queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// schedule validates t, fills a (possibly recycled) event struct, and pushes
// it onto the heap.
func (e *Engine) schedule(t Time, name string, fn func()) *event {
	if t < e.now {
		panic(fmt.Sprintf("simclock: event %q scheduled at %v, before now %v", name, t, e.now))
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.when = t
	ev.seq = e.nextSeq
	ev.name = name
	ev.fn = fn
	ev.canceled = false
	e.nextSeq++
	e.queue.push(ev)
	return ev
}

// recycle bumps the event's generation (invalidating outstanding Handles) and
// returns the struct to the free list with its references cleared.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.name = ""
	e.free = append(e.free, ev)
}

// At schedules fn to run at instant t. Scheduling an event in the past is a
// programming error and panics: in a discrete-event simulation a past event
// means the model is broken, and continuing would silently corrupt causality.
// The name is used in error messages and traces.
func (e *Engine) At(t Time, name string, fn func()) *Handle {
	ev := e.schedule(t, name, fn)
	return &Handle{engine: e, ev: ev, gen: ev.gen, when: t}
}

// After schedules fn to run d after the current instant. A negative d panics
// (see At); a zero d runs after the current event completes, in scheduling
// order.
func (e *Engine) After(d time.Duration, name string, fn func()) *Handle {
	return e.At(e.now.Add(d), name, fn)
}

// Schedule is At without a cancel handle: the hot path for fire-and-forget
// events. With no Handle to allocate and the event struct drawn from the
// free list, steady-state scheduling through here allocates nothing.
func (e *Engine) Schedule(t Time, name string, fn func()) {
	e.schedule(t, name, fn)
}

// ScheduleAfter is After without a cancel handle; see Schedule.
func (e *Engine) ScheduleAfter(d time.Duration, name string, fn func()) {
	e.schedule(e.now.Add(d), name, fn)
}

// Step fires the earliest pending event and returns true, or returns false
// if the queue is empty or the engine has been stopped.
func (e *Engine) Step() bool {
	if e.stopped {
		return false
	}
	for {
		ev := e.queue.pop()
		if ev == nil {
			return false
		}
		if ev.canceled {
			e.canceledPending--
			e.recycle(ev)
			continue
		}
		e.now = ev.when
		e.dispatched++
		fn := ev.fn
		// Recycle before firing: fn routinely schedules the next occurrence
		// of a periodic activity, and handing it this struct back keeps the
		// free list at its steady-state size. The generation bump means any
		// Handle still pointing here sees its event as gone, not reused.
		e.recycle(ev)
		fn()
		return true
	}
}

// Run fires events until the queue drains or Stop is called.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// peekLive returns the earliest non-canceled event without firing it,
// discarding canceled events from the top of the heap along the way.
func (e *Engine) peekLive() *event {
	for {
		ev := e.queue.peek()
		if ev == nil || !ev.canceled {
			return ev
		}
		e.queue.pop()
		e.canceledPending--
		e.recycle(ev)
	}
}

// RunUntil fires events up to and including instant t, then advances the
// clock to t. Events scheduled beyond t remain queued.
func (e *Engine) RunUntil(t Time) {
	for !e.stopped {
		ev := e.peekLive()
		if ev == nil || ev.when > t {
			break
		}
		e.Step()
	}
	if !e.stopped && e.now < t {
		e.now = t
	}
}

// RunFor fires events for the span d from the current instant. It is
// shorthand for RunUntil(Now().Add(d)).
func (e *Engine) RunFor(d time.Duration) {
	e.RunUntil(e.now.Add(d))
}

// Stop halts the engine: subsequent Step/Run calls return immediately.
// Pending events stay queued so state can be inspected post mortem.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// Pending reports the number of events currently queued, including events
// that were canceled but not yet discarded. Intended for tests and
// diagnostics.
func (e *Engine) Pending() int { return e.queue.len() }

// Dispatched reports how many events have fired since boot — the engine's
// own throughput counter, maintained unconditionally (one increment per
// event) so observability snapshots can read it without hooking the hot
// path.
func (e *Engine) Dispatched() uint64 { return e.dispatched }

// Handle identifies a scheduled event and allows canceling it. Because event
// structs are recycled after firing, the Handle snapshots the event's
// generation and scheduled instant at creation; it never reads a recycled
// struct's new contents.
type Handle struct {
	engine   *Engine
	ev       *event
	gen      uint64
	when     Time
	canceled bool
}

// Cancel withdraws the event. Canceling an already-fired or already-canceled
// event is a no-op. A nil handle is also a no-op, so callers can Cancel
// unconditionally.
func (h *Handle) Cancel() {
	if h == nil || h.ev == nil || h.canceled {
		return
	}
	if h.ev.gen != h.gen {
		return // already fired and recycled
	}
	h.canceled = true
	h.ev.canceled = true
	h.engine.canceledPending++
	h.engine.maybeCompact()
}

// Canceled reports whether the event was withdrawn before firing.
func (h *Handle) Canceled() bool {
	return h != nil && h.canceled
}

// When reports the instant the event is (or was) scheduled for.
func (h *Handle) When() Time {
	if h == nil || h.ev == nil {
		return 0
	}
	return h.when
}

// maybeCompact sweeps canceled events out of the heap once they both exceed
// a fixed floor and outnumber the live events. The double condition keeps
// the amortized cost linear in the number of cancels while bounding the heap
// at roughly twice the live-event count under any cancel pattern.
func (e *Engine) maybeCompact() {
	if e.canceledPending < compactMinCanceled || e.canceledPending*2 < e.queue.len() {
		return
	}
	e.queue.compact(e.recycle)
	e.canceledPending = 0
}
