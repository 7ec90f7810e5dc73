// Package sim provides a small deterministic discrete-event simulation
// engine. Time is measured in integer nanoseconds of virtual time. Events
// scheduled for the same instant fire in FIFO order of scheduling, which
// makes every simulation built on the engine fully reproducible.
package sim

import (
	"fmt"
	"math"
	"runtime/debug"
)

// Time is virtual simulation time in nanoseconds.
type Time int64

// Common durations in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000

	// MaxTime is the end of virtual time. Schedule saturates here when
	// now+delay would overflow, so a "practically never" delay stays in
	// the far future instead of wrapping negative and firing at once.
	MaxTime Time = math.MaxInt64
)

// Seconds converts a virtual time to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts a virtual time to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis converts a virtual time to floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// event is one scheduled callback: either a plain closure fn, or an
// arg-carrying pair (afn, arg) — the allocation-free form hot paths use
// so that scheduling needs no per-event closure.
type event struct {
	at  Time
	seq uint64
	fn  func()
	afn func(any)
	arg any
}

// maxFreeEvents bounds the event free list across runs. Within a run
// the list grows to the peak Pending() so steady-state scheduling
// allocates nothing; it used to stay at that peak forever, pinning one
// large job's worth of memory for the life of a long-running process
// (e.g. sweepd). Run and RunUntil now decay it back to this bound on
// exit, reallocating the backing array so the old peak is collectable.
const maxFreeEvents = 1024

// Engine is a discrete-event simulation executive. The zero value is ready
// to use at virtual time zero.
type Engine struct {
	q       eventQueue
	now     Time
	seq     uint64
	stopped bool
	err     error
	// executed counts events that have been dispatched, for diagnostics.
	executed uint64
	// stall counts consecutive events dispatched without the virtual
	// clock advancing, for the no-progress watchdog.
	stall uint64
	// MaxEvents, when non-zero, aborts Run after that many events as a
	// runaway-simulation backstop. The run ends with an ErrLivelock-
	// wrapped *LivelockError.
	MaxEvents uint64
	// MaxStallEvents, when non-zero, aborts Run once that many
	// consecutive events execute at the same virtual instant — a model
	// rescheduling itself with zero delay never advances the clock, and
	// this watchdog catches it long before MaxEvents would.
	MaxStallEvents uint64
	// free recycles dispatched event structs so steady-state scheduling
	// allocates nothing. Bounded by maxFreeEvents.
	free []*event
	// OnEvent, when set, observes every dispatched event just before its
	// callback runs. Observers must not schedule events or mutate model
	// state; the hook exists for tracing and costs nothing when nil.
	OnEvent func(at Time)
}

// NewEngine returns an engine at virtual time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of scheduled events not yet executed.
func (e *Engine) Pending() int { return e.q.size }

// Executed reports how many events have been dispatched so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Schedule enqueues fn to run after delay. A negative delay is treated as
// zero: the event runs at the current instant, after events already queued
// for that instant. A delay so large that now+delay overflows saturates
// at MaxTime instead of wrapping.
func (e *Engine) Schedule(delay Time, fn func()) {
	e.At(e.deadline(delay), fn)
}

// ScheduleArg enqueues fn(arg) to run after delay, with the same delay
// semantics as Schedule. Passing the argument through the event instead
// of a closure lets hot paths schedule without allocating.
func (e *Engine) ScheduleArg(delay Time, fn func(any), arg any) {
	e.AtArg(e.deadline(delay), fn, arg)
}

// deadline converts a relative delay to an absolute time, clamping
// negative delays to zero and saturating overflow at MaxTime.
func (e *Engine) deadline(delay Time) Time {
	if delay < 0 {
		delay = 0
	}
	t := e.now + delay
	if t < e.now { // signed overflow: now + delay wrapped
		t = MaxTime
	}
	return t
}

// At enqueues fn to run at absolute virtual time t. Times in the past are
// clamped to the present.
func (e *Engine) At(t Time, fn func()) {
	ev := e.newEvent(t)
	ev.fn = fn
	e.q.Push(ev)
}

// AtArg enqueues fn(arg) to run at absolute virtual time t, clamped like At.
func (e *Engine) AtArg(t Time, fn func(any), arg any) {
	ev := e.newEvent(t)
	ev.afn = fn
	ev.arg = arg
	e.q.Push(ev)
}

// newEvent takes an event struct from the free list (or allocates one)
// and stamps it with the clamped time and the next sequence number.
func (e *Engine) newEvent(t Time) *event {
	if t < e.now {
		t = e.now
	}
	e.seq++
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.at, ev.seq = t, e.seq
	return ev
}

// recycle returns a popped event to the free list. The callback and
// argument references are dropped so recycled events never pin dead
// closures.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.afn = nil
	ev.arg = nil
	e.free = append(e.free, ev)
}

// trimFree decays the free list to maxFreeEvents at a run boundary,
// moving the survivors to a right-sized backing array so the large
// one — grown to the run's peak Pending() — becomes garbage. The
// queue's spare FIFOs and slot array decay alongside (eventQueue.trim).
func (e *Engine) trimFree() {
	e.q.trim()
	if len(e.free) <= maxFreeEvents {
		return
	}
	kept := make([]*event, maxFreeEvents)
	copy(kept, e.free)
	e.free = kept
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Fail records err as the run's terminal error and stops the dispatch
// loop. The first error wins; later calls only stop the loop. Models use
// it to surface unrecoverable conditions from inside event callbacks,
// where no return path to the Run caller exists.
func (e *Engine) Fail(err error) {
	if e.err == nil {
		e.err = err
	}
	e.stopped = true
}

// Err returns the terminal error recorded by Fail or a watchdog, if any.
func (e *Engine) Err() error { return e.err }

// dispatch runs one popped event, enforcing the livelock watchdogs. It
// reports false when a watchdog aborted the run (the event is not
// executed).
func (e *Engine) dispatch(ev *event) bool {
	if ev.at > e.now {
		e.stall = 0
	} else {
		e.stall++
		if e.MaxStallEvents != 0 && e.stall > e.MaxStallEvents {
			e.Fail(&LivelockError{
				Reason:   fmt.Sprintf("virtual clock stalled for %d consecutive events", e.stall),
				At:       e.now,
				Executed: e.executed,
				Pending:  e.q.size + 1,
			})
			return false
		}
	}
	e.now = ev.at
	e.executed++
	if e.MaxEvents != 0 && e.executed > e.MaxEvents {
		e.Fail(&LivelockError{
			Reason:   fmt.Sprintf("MaxEvents (%d) exceeded", e.MaxEvents),
			At:       e.now,
			Executed: e.executed,
			Pending:  e.q.size + 1,
		})
		return false
	}
	if e.OnEvent != nil {
		e.OnEvent(e.now)
	}
	e.runCallback(ev)
	return true
}

// runCallback executes one event callback, converting a panic into the
// run's terminal *CallbackPanicError instead of unwinding through Run.
func (e *Engine) runCallback(ev *event) {
	defer func() {
		if r := recover(); r != nil {
			e.Fail(&CallbackPanicError{
				Value:    r,
				At:       e.now,
				Executed: e.executed,
				Stack:    string(debug.Stack()),
			})
		}
	}()
	if ev.afn != nil {
		ev.afn(ev.arg)
		return
	}
	ev.fn()
}

// Run dispatches events in timestamp order until the queue drains, Stop or
// Fail is called, or a watchdog fires. It returns the final virtual time
// and the terminal error, if any; a run that already failed returns its
// error without dispatching further events.
func (e *Engine) Run() (Time, error) {
	if e.err != nil {
		return e.now, e.err
	}
	e.stopped = false
	for !e.stopped {
		ev := e.q.PopMin()
		if ev == nil {
			break
		}
		ok := e.dispatch(ev)
		e.recycle(ev)
		if !ok {
			break
		}
	}
	e.trimFree()
	return e.now, e.err
}

// RunUntil dispatches events with timestamps <= deadline and then returns.
// Events beyond the deadline remain queued; the clock is left at the later
// of its current value and the deadline. A run aborted by Fail or a
// watchdog leaves the clock at the failure instant instead, so failure
// diagnostics (e.g. LivelockError.At) and Now agree.
func (e *Engine) RunUntil(deadline Time) (Time, error) {
	if e.err != nil {
		return e.now, e.err
	}
	e.stopped = false
	for !e.stopped {
		ev := e.q.PopMinUntil(deadline)
		if ev == nil {
			break
		}
		ok := e.dispatch(ev)
		e.recycle(ev)
		if !ok {
			break
		}
	}
	e.trimFree()
	if e.err == nil && e.now < deadline {
		e.now = deadline
	}
	return e.now, e.err
}
