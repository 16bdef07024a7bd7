// External test package: it drives the engine through the trace recorder
// (sim cannot import trace — trace imports sim).
package sim_test

import (
	"testing"

	"slingshot/internal/sim"
	"slingshot/internal/trace"
)

// TestEveryCancelStopsTickEvents pins the fix for the periodic-cancel
// leak: canceling an Every mid-run must (a) emit no further per-tick
// trace events, and (b) remove the pending tick from the event queue
// immediately rather than leaving a canceled tombstone until its fire
// time.
func TestEveryCancelStopsTickEvents(t *testing.T) {
	eng := sim.NewEngine()
	rec := trace.NewRecorder(64)
	rec.Bind(eng)

	n := uint64(0)
	cancel := eng.Every(0, sim.Millisecond, "probe", func() {
		n++
		rec.EmitLabeled(trace.KindTick, "probe", 0, 0, 0, n, 0)
	})

	eng.RunUntil(5 * sim.Millisecond) // fires at 0..5 ms inclusive
	if n != 6 {
		t.Fatalf("tick fired %d times before cancel, want 6", n)
	}
	if got := rec.Total(); got != 6 {
		t.Fatalf("recorder saw %d events, want 6", got)
	}

	cancel()
	if p := eng.Pending(); p != 0 {
		t.Fatalf("canceled periodic event still queued: Pending() = %d, want 0", p)
	}

	eng.RunUntil(50 * sim.Millisecond)
	if n != 6 || rec.Total() != 6 {
		t.Fatalf("events after cancel: ticks=%d traced=%d, want 6/6", n, rec.Total())
	}

	// Cancel is idempotent even after the fix.
	cancel()
	if p := eng.Pending(); p != 0 {
		t.Fatalf("double cancel re-queued something: Pending() = %d", p)
	}
}

// TestEveryCancelFromInsideTick cancels the clock from within its own
// callback — the event being canceled has already fired, so the stop
// must handle the idle-timer case.
func TestEveryCancelFromInsideTick(t *testing.T) {
	eng := sim.NewEngine()
	n := 0
	var cancel func()
	cancel = eng.Every(0, sim.Millisecond, "self-stop", func() {
		n++
		if n == 3 {
			cancel()
		}
	})
	eng.RunUntil(20 * sim.Millisecond)
	if n != 3 {
		t.Fatalf("tick fired %d times, want 3", n)
	}
	if p := eng.Pending(); p != 0 {
		t.Fatalf("self-canceled clock left %d queued events", p)
	}
}

// TestRemoveSafety exercises Timer.Stop on idle, fired, and doubly
// stopped timers, and checks a stop keeps the remaining schedule intact.
func TestRemoveSafety(t *testing.T) {
	eng := sim.NewEngine()
	fired := false
	a := eng.NewTimer("a", func() { fired = true })
	b := eng.NewTimer("b", func() { t.Fatal("stopped timer fired") })
	c := eng.NewTimer("c", func() {})
	c.Stop() // never set: no-op
	a.Reset(1 * sim.Millisecond)
	b.Reset(2 * sim.Millisecond)
	c.Reset(3 * sim.Millisecond)

	b.Stop()
	b.Stop() // idempotent
	if p := eng.Pending(); p != 2 {
		t.Fatalf("Pending() = %d after stopping 1 of 3, want 2", p)
	}

	eng.Run()
	if !fired {
		t.Fatal("surviving timer a never fired")
	}
	a.Stop() // already fired: no-op
	c.Stop()
	if p := eng.Pending(); p != 0 {
		t.Fatalf("Pending() = %d after drain, want 0", p)
	}
}

// TestEveryCancelDoesNotStallBarrier drives an engine the way the shard
// fleet does — repeated RunUntil calls to successive lockstep barriers —
// and cancels a periodic "cross-shard tick" mid-run. The barrier loop
// must keep advancing the clock to every deadline: a canceled tick whose
// fire time coincides with the next barrier must neither fire nor stop
// RunUntil from landing exactly on the barrier.
func TestEveryCancelDoesNotStallBarrier(t *testing.T) {
	eng := sim.NewEngine()
	const step = 500 * sim.Microsecond

	ticks := 0
	cancel := eng.Every(step, 4*step, "xshard", func() { ticks++ })

	for barrier := step; barrier <= 40*step; barrier += step {
		eng.RunUntil(barrier)
		if eng.Now() != barrier {
			t.Fatalf("barrier stalled: Now()=%v, want %v", eng.Now(), barrier)
		}
		// Cancel just before the tick's next fire time lands exactly on
		// the upcoming barrier (ticks at 1, 5, 9 steps; cancel after 9).
		if barrier == 12*step {
			cancel()
		}
	}
	if ticks != 3 {
		t.Fatalf("cross-shard tick fired %d times, want 3 (canceled after 12 steps)", ticks)
	}
	if p := eng.Pending(); p != 0 {
		t.Fatalf("canceled tick left %d queued events behind the barrier loop", p)
	}
}

// TestRemoveOnlyEventStillAdvancesBarrier stops the sole queued event
// between two barriers: RunUntil on an empty queue must still advance the
// clock to the deadline (the fleet relies on this — an idle shard parks
// at the barrier rather than lagging the fleet clock).
func TestRemoveOnlyEventStillAdvancesBarrier(t *testing.T) {
	eng := sim.NewEngine()
	only := eng.NewTimer("only", func() { t.Fatal("stopped timer fired") })
	only.Reset(3 * sim.Millisecond)
	eng.RunUntil(sim.Millisecond)
	only.Stop()
	eng.RunUntil(5 * sim.Millisecond)
	if eng.Now() != 5*sim.Millisecond {
		t.Fatalf("empty-queue barrier left Now()=%v, want 5ms", eng.Now())
	}
}
