package sim

import "container/heap"

// ReferenceEngine is the seed's single-binary-heap discrete-event core,
// retained (modulo the rename and the retired cancel flag) as the
// behavioral reference for the two-tier calendar/4-ary queue in queue.go —
// the same pattern as fec/reference_test.go and
// fronthaul/bfp_reference_test.go: the slow, obviously correct
// implementation stays in the tree and randomized differential tests pin
// the fast path to it. It intentionally keeps the eager heap.Remove,
// handle-returning At/After and interface-boxed container/heap machinery
// the optimized engine replaced.
//
// It lives in a test file, so no production path can reach it.
type ReferenceEngine struct {
	now     Time
	queue   refHeap
	nextSeq uint64
	stopped bool

	Processed uint64
}

type refEvent struct {
	At    Time
	Do    func()
	Name  string
	seq   uint64
	index int
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// NewReferenceEngine creates a reference engine with the clock at zero.
func NewReferenceEngine() *ReferenceEngine {
	return &ReferenceEngine{}
}

// Now returns the current virtual time.
func (e *ReferenceEngine) Now() Time { return e.now }

// RefEvent is an opaque handle to a scheduled reference event.
type RefEvent = refEvent

// At schedules fn at absolute time at (panics when at < Now, like Engine).
func (e *ReferenceEngine) At(at Time, name string, fn func()) *RefEvent {
	if at < e.now {
		panic("sim: reference scheduling before now")
	}
	ev := &refEvent{At: at, Do: fn, Name: name, seq: e.nextSeq}
	e.nextSeq++
	heap.Push(&e.queue, ev)
	return ev
}

// After schedules fn d after the current time.
func (e *ReferenceEngine) After(d Time, name string, fn func()) *RefEvent {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, name, fn)
}

// Remove eagerly deletes ev from the heap (the seed semantics the
// optimized engine's lazy Timer.Stop must be indistinguishable from). A
// fired or already removed event is left alone.
func (e *ReferenceEngine) Remove(ev *RefEvent) {
	if ev == nil {
		return
	}
	if ev.index >= 0 && ev.index < len(e.queue) && e.queue[ev.index] == ev {
		heap.Remove(&e.queue, ev.index)
	}
}

// Every mirrors Engine.Every: each tick schedules the next one after fn.
func (e *ReferenceEngine) Every(delay, period Time, name string, fn func()) (cancel func()) {
	if period <= 0 {
		panic("sim: Every requires a positive period")
	}
	if delay < 0 {
		delay = 0
	}
	stopped := false
	var tick func()
	var pending *refEvent
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			pending = e.After(period, name, tick)
		}
	}
	pending = e.At(e.now+delay, name, tick)
	return func() {
		stopped = true
		e.Remove(pending)
	}
}

// Step executes the next pending event.
func (e *ReferenceEngine) Step() bool {
	if e.stopped || e.queue.Len() == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*refEvent)
	e.now = ev.At
	e.Processed++
	ev.Do()
	return true
}

// RunUntil executes events until the clock would pass deadline.
func (e *ReferenceEngine) RunUntil(deadline Time) {
	for !e.stopped {
		if e.queue.Len() == 0 {
			break
		}
		next := e.queue[0]
		if next.At > deadline {
			break
		}
		heap.Pop(&e.queue)
		e.now = next.At
		e.Processed++
		next.Do()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Pending returns the queue length.
func (e *ReferenceEngine) Pending() int { return e.queue.Len() }

// NextSeq returns the next sequence number to be assigned.
func (e *ReferenceEngine) NextSeq() uint64 { return e.nextSeq }

// QueueSnapshot returns pending events in canonical (At, Seq) order.
func (e *ReferenceEngine) QueueSnapshot() []QueuedEvent {
	out := make([]QueuedEvent, 0, len(e.queue))
	for _, ev := range e.queue {
		out = append(out, QueuedEvent{At: ev.At, Seq: ev.seq, Name: ev.Name})
	}
	sortQueued(out)
	return out
}

func sortQueued(out []QueuedEvent) {
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := &out[j], &out[j-1]
			if a.At > b.At || (a.At == b.At && a.Seq > b.Seq) {
				break
			}
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
}
