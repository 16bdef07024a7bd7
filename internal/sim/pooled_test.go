package sim

import "testing"

// Pooled scheduling must interleave with At/After in exact FIFO order at
// equal timestamps, and must actually recycle event structs.
func TestPooledOrderingMatchesAt(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(10, "a", func() { got = append(got, 0) })
	e.AfterPooled(10, "b", func() { got = append(got, 1) })
	e.AtArgPooled(10, "c", func(a any) { got = append(got, a.(int)) }, 2)
	e.After(10, "d", func() { got = append(got, 3) })
	e.AfterPooled(10, "e", func() { got = append(got, 4) })
	e.AfterArgPooled(10, "f", func(a any) { got = append(got, a.(int)) }, 5)
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
		e.AfterPooled(1, "tick", func() {})
		if !e.Step() {
			t.Fatal("step failed")
		}
	}
	if len(e.free) != 1 {
		t.Fatalf("free list holds %d events, want 1 (same struct reused)", len(e.free))
	}
}

func TestPooledRecycleClearsReferences(t *testing.T) {
	e := NewEngine()
	e.AtArgPooled(1, "x", func(any) {}, "payload")
	e.Run()
	ev := e.free[0]
	if ev.Do != nil || ev.doArg != nil || ev.arg != nil || ev.Name != "" {
		t.Fatalf("recycled event retains references: %+v", ev)
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
