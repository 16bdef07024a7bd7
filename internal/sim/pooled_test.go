package sim

import "testing"

// Every scheduling form must interleave in exact FIFO order at equal
// timestamps, and must actually recycle event structs.
func TestPooledOrderingMatchesAt(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(10, "a", func() { got = append(got, 0) })
	e.After(10, "b", func() { got = append(got, 1) })
	e.AtArg(10, "c", func(a any) { got = append(got, a.(int)) }, 2)
	e.After(10, "d", func() { got = append(got, 3) })
	e.NewTimer("e", func() { got = append(got, 4) }).Reset(10)
	e.AfterArg(10, "f", func(a any) { got = append(got, a.(int)) }, 5)
	e.Run()
	for i, v := range got {
		if i != v {
			t.Fatalf("fire order %v, want 0..5 in sequence", got)
		}
	}
	if len(got) != 6 {
		t.Fatalf("fired %d events, want 6", len(got))
	}
}

func TestPooledEventsAreRecycled(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 100; i++ {
		e.After(1, "tick", func() {})
		if !e.Step() {
			t.Fatal("step failed")
		}
	}
	if len(e.q.free) != 1 {
		t.Fatalf("free list holds %d events, want 1 (same struct reused)", len(e.q.free))
	}
}

// A stopped timer's event is recycled when it surfaces from the queue,
// without firing and without advancing the clock.
func TestStoppedTimerEventIsRecycled(t *testing.T) {
	e := NewEngine()
	tm := e.NewTimer("rto", func() { t.Fatal("stopped timer fired") })
	tm.Reset(5)
	tm.Stop()
	if len(e.q.free) != 0 {
		t.Fatalf("free list holds %d events before the stopped one surfaced", len(e.q.free))
	}
	if e.Step() {
		t.Fatal("Step fired a stopped timer")
	}
	if len(e.q.free) != 1 || e.Now() != 0 {
		t.Fatalf("after the stopped event surfaced: free %d, now %v; want 1, 0", len(e.q.free), e.Now())
	}
}

func TestPooledRecycleClearsReferences(t *testing.T) {
	e := NewEngine()
	e.AtArg(1, "x", func(any) {}, "payload")
	tm := e.NewTimer("y", func() {})
	tm.Reset(2)
	tm.Stop()
	e.Run()
	for _, ev := range e.q.free {
		if ev.do != nil || ev.doArg != nil || ev.arg != nil || ev.name != "" || ev.removed {
			t.Fatalf("recycled event retains references: %+v", ev)
		}
	}
	if len(e.q.free) != 2 {
		t.Fatalf("free list holds %d events, want 2", len(e.q.free))
	}
}

// Every must reuse its tick event rather than allocating one per period.
func TestEveryReusesEvent(t *testing.T) {
	e := NewEngine()
	n := 0
	cancel := e.Every(0, 10, "tick", func() { n++ })
	start := testing.AllocsPerRun(1, func() {
		before := n
		e.RunUntil(e.Now() + 100)
		if n < before+9 {
			t.Fatalf("ticks did not fire: %d -> %d", before, n)
		}
	})
	if start > 1 {
		t.Fatalf("Every ticks allocate %v per 10 periods, want ≤1", start)
	}
	cancel()
	before := n
	e.RunUntil(e.Now() + 100)
	if n != before {
		t.Fatal("ticks fired after cancel")
	}
}
