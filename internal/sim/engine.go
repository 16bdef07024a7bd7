package sim

import (
	"cmp"
	"fmt"
	"slices"
)

// event is a scheduled callback. Events with equal times fire in the order
// they were scheduled (FIFO tie-break by sequence number), which keeps runs
// fully deterministic.
//
// The engine owns every event: no caller ever holds one, so each is
// recycled onto the queue's free list once it leaves the queue — after
// it fires, or, for a stopped Timer, when it surfaces as garbage.
type event struct {
	at   Time
	seq  uint64
	name string // label for queue snapshots

	// do fires when set; otherwise doArg(arg) does. The argument form
	// lets callers schedule with a long-lived closure and a per-event
	// payload, so the hot path allocates neither closure nor event.
	do    func()
	doArg func(any)
	arg   any

	removed bool // stopped while queued; discarded when it surfaces
}

func (ev *event) fire() {
	if ev.do != nil {
		ev.do()
		return
	}
	ev.doArg(ev.arg)
}

// Engine is the discrete-event simulation core. It is not safe for
// concurrent use: simulated entities are single-threaded by design, matching
// the determinism requirement.
//
// Pending events live in a two-tier calendar/4-ary-heap queue (queue.go):
// near-future events in ring buckets, far-future events in a specialized
// heap, popped in exact (at, seq) order either way.
type Engine struct {
	now     Time
	q       calQueue
	nextSeq uint64
	stopped bool

	// Processed counts events executed so far (observability).
	Processed uint64
}

// NewEngine creates an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// push queues a recycled event for fn (or fnArg(arg)) at absolute time at.
// Scheduling in the past (before Now) panics: it would silently reorder
// causality.
func (e *Engine) push(at Time, name string, fn func(), fnArg func(any), arg any) *event {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event %q at %v before now %v", name, at, e.now))
	}
	ev := e.q.get()
	*ev = event{at: at, seq: e.nextSeq, name: name, do: fn, doArg: fnArg, arg: arg}
	e.nextSeq++
	e.q.push(ev, e.now)
	return ev
}

// At schedules fn to run at absolute time at.
func (e *Engine) At(at Time, name string, fn func()) {
	e.push(at, name, fn, nil, nil)
}

// After schedules fn to run d after the current time (a negative d means
// now).
func (e *Engine) After(d Time, name string, fn func()) {
	e.push(e.now+max(d, 0), name, fn, nil, nil)
}

// AfterPooled is After. It remains only because the benchmark module's
// engine probe (bench/probes.go) calls it by this name.
func (e *Engine) AfterPooled(d Time, name string, fn func()) { e.After(d, name, fn) }

// AtArg schedules fn(arg) at absolute time at. With a long-lived fn (e.g.
// one per link) the schedule allocates nothing: no closure, no event.
func (e *Engine) AtArg(at Time, name string, fn func(any), arg any) {
	e.push(at, name, nil, fn, arg)
}

// AfterArg schedules fn(arg) to run d after the current time. See AtArg.
func (e *Engine) AfterArg(d Time, name string, fn func(any), arg any) {
	e.push(e.now+max(d, 0), name, nil, fn, arg)
}

// Timer is a cancellable one-shot callback, and the engine's only way to
// cancel anything. At most one firing is pending at a time.
type Timer struct {
	e    *Engine
	name string
	fn   func()
	ev   *event // the pending firing; nil when idle
}

// NewTimer returns an idle timer that runs fn each time it fires.
func (e *Engine) NewTimer(name string, fn func()) *Timer {
	return &Timer{e: e, name: name, fn: fn}
}

// timerFire is every timer event's callback: the timer goes idle before
// fn runs, so fn may Reset it.
func timerFire(arg any) {
	t := arg.(*Timer)
	t.ev = nil
	t.fn()
}

// Reset stops any pending firing and schedules a new one d after the
// current time (a negative d means now). The new firing takes a fresh
// sequence number, exactly as a new After would.
func (t *Timer) Reset(d Time) {
	t.Stop()
	t.ev = t.e.push(t.e.now+max(d, 0), t.name, nil, timerFire, t)
}

// Stop deletes the pending firing, if any, from the schedule at once:
// Pending drops, QueueSnapshot no longer lists it, and it can never fire.
// The event itself stays in its tier until it surfaces at a pop, where
// it is discarded without advancing the clock and recycled. Stop on an
// idle timer (never set, already fired or already stopped) is a no-op.
func (t *Timer) Stop() {
	if t.ev != nil {
		t.ev.removed = true
		t.e.q.live--
		t.ev = nil
	}
}

// Every schedules fn to run every period, with the first firing delay
// after the current time. It returns a cancel function that stops future
// firings, also when called from within fn. fn observes the engine clock.
func (e *Engine) Every(delay, period Time, name string, fn func()) (cancel func()) {
	if period <= 0 {
		panic("sim: Every requires a positive period")
	}
	stopped := false
	var t *Timer
	t = e.NewTimer(name, func() {
		fn()
		if !stopped { // fn may have canceled us
			t.Reset(period)
		}
	})
	t.Reset(delay)
	return func() {
		stopped = true
		t.Stop()
	}
}

// Step executes the next pending event. It returns false when the queue is
// empty or the engine is stopped.
func (e *Engine) Step() bool {
	if e.stopped {
		return false
	}
	ev := e.q.pop(e.now)
	if ev == nil {
		return false
	}
	e.run(ev)
	return true
}

// run advances the clock to a popped event, fires it and recycles it.
func (e *Engine) run(ev *event) {
	e.now = ev.at
	e.Processed++
	ev.fire()
	e.q.put(ev)
}

// RunUntil executes events until the clock would pass deadline or the queue
// drains. The clock is left at deadline if it was reached with the queue
// still holding later events.
func (e *Engine) RunUntil(deadline Time) {
	for !e.stopped {
		next := e.q.peek(e.now)
		if next == nil || next.at > deadline {
			break
		}
		e.q.pop(e.now)
		e.run(next)
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// Stop halts the engine; Step and RunUntil return immediately afterwards.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// Pending returns the number of queued events that can still fire.
func (e *Engine) Pending() int { return e.q.live }

// NextSeq returns the sequence number the next scheduled event will get.
// Together with QueueSnapshot it pins the engine's scheduling state for
// deployment snapshots: two engines with equal clocks, equal next
// sequence numbers and equal queue snapshots will fire the same events in
// the same order.
func (e *Engine) NextSeq() uint64 { return e.nextSeq }

// QueuedEvent is one pending event's serializable identity: its fire
// time, FIFO tie-break sequence and label. The callback itself is a
// closure and deliberately not part of the identity — restore
// reconstructs closures by deterministic re-execution (internal/ckpt),
// and the (At, Seq, Name) triple is what proves the reconstruction
// reached the same schedule.
type QueuedEvent struct {
	At   Time
	Seq  uint64
	Name string
}

// QueueSnapshot returns the pending events in canonical (At, Seq) order.
// The tiers are only partially ordered, so the snapshot sorts a copy; the
// engine's queue is not disturbed. Stopped timers' events are excluded —
// they are no longer part of the schedule's identity.
func (e *Engine) QueueSnapshot() []QueuedEvent {
	out := e.q.snapshot(make([]QueuedEvent, 0, e.q.live))
	slices.SortFunc(out, func(a, b QueuedEvent) int {
		return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Seq, b.Seq))
	})
	return out
}
