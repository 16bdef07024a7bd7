package sim

import "testing"

// The engine microbenchmarks exercise the two-tier queue's three regimes:
//
//   - Grid: every event lands on the slot grid (500µs TTI), the fronthaul
//     workload's shape — near-future, heavily tied timestamps that stay in
//     the calendar tier's ring buckets.
//   - OffGrid: uniformly scattered sub-window offsets — still calendar
//     tier, but one event per bucket position, the worst case for the
//     sorted-bucket insert.
//   - Mixed: the metro engine's real blend — mostly near-future grid
//     events plus a tail of far-future timers that route through the
//     4-ary heap tier and migrate into the calendar as the clock advances.
//
// All three run the full schedule→fire cycle and must not allocate: the
// event structs recycle through the queue's free list and the calendar
// buckets were pre-carved at init.

// benchLoop schedules and drains nPer events per step using offs[i] as
// each event's delay, forever reusing one engine.
func benchLoop(b *testing.B, offs []Time) {
	e := NewEngine()
	fired := 0
	fn := func() { fired++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range offs {
			e.After(d, "bench", fn)
		}
		for e.Step() {
		}
	}
	if fired != b.N*len(offs) {
		b.Fatalf("fired %d events, want %d", fired, b.N*len(offs))
	}
}

func BenchmarkEngineStepGrid(b *testing.B) {
	const tti = 500 * Microsecond
	offs := make([]Time, 64)
	for i := range offs {
		offs[i] = Time(i%8) * tti // 8 slots, 8 events tied per slot
	}
	benchLoop(b, offs)
}

func BenchmarkEngineStepOffGrid(b *testing.B) {
	offs := make([]Time, 64)
	r := NewRNG(1)
	for i := range offs {
		offs[i] = Time(r.Intn(4 * int(Millisecond))) // scattered, calendar tier
	}
	benchLoop(b, offs)
}

func BenchmarkEngineStepMixed(b *testing.B) {
	offs := make([]Time, 64)
	r := NewRNG(2)
	for i := range offs {
		if i%8 == 0 {
			// Far-future timer past the calendar window: heap tier.
			offs[i] = 40*Millisecond + Time(r.Intn(int(100*Millisecond)))
		} else {
			offs[i] = Time(r.Intn(2 * int(Millisecond)))
		}
	}
	benchLoop(b, offs)
}

// BenchmarkEngineScheduleCancel measures Timer.Reset plus Stop-driven
// lazy deletion: half the armed timers are stopped before the drain, the
// shape of HARQ/timeout timers that almost always cancel. Stopped events
// recycle when they surface, so the cycle allocates nothing.
func BenchmarkEngineScheduleCancel(b *testing.B) {
	e := NewEngine()
	timers := make([]*Timer, 64)
	for j := range timers {
		timers[j] = e.NewTimer("bench", func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, tm := range timers {
			tm.Reset(Time(j) * Microsecond)
		}
		for j := 0; j < len(timers); j += 2 {
			timers[j].Stop()
		}
		for e.Step() {
		}
	}
}

// TestEngineStepBenchmarksDoNotAllocate pins the schedule→fire cycle at
// zero allocations per event in all three queue regimes, for every
// scheduling form (At, After, AtArg) and for a timer that is Reset,
// Stopped and Reset again before the drain — the stopped firing's event
// must come back through the free list. This is the alloc gate the
// microbenchmarks report; asserting it in a test keeps `go test` (not
// just bench runs) guarding it.
func TestEngineStepBenchmarksDoNotAllocate(t *testing.T) {
	shapes := map[string][]Time{
		"grid":    {0, 0, 500 * Microsecond, 500 * Microsecond, Millisecond},
		"offgrid": {17 * Microsecond, 341 * Microsecond, 3 * Millisecond},
		"mixed":   {5 * Microsecond, 700 * Microsecond, 90 * Millisecond},
	}
	fn := func() {}
	fnArg := func(any) {}
	forms := map[string]func(e *Engine, tm *Timer, d Time){
		"At":    func(e *Engine, _ *Timer, d Time) { e.At(e.Now()+d, "t", fn) },
		"After": func(e *Engine, _ *Timer, d Time) { e.After(d, "t", fn) },
		"AtArg": func(e *Engine, _ *Timer, d Time) { e.AtArg(e.Now()+d, "t", fnArg, e) },
		"Timer": func(_ *Engine, tm *Timer, d Time) { tm.Reset(d); tm.Stop(); tm.Reset(d) },
	}
	for name, offs := range shapes {
		for form, schedule := range forms {
			e := NewEngine()
			timers := make([]*Timer, len(offs))
			for i := range timers {
				timers[i] = e.NewTimer("t", fn)
			}
			cycle := func() {
				for i, d := range offs {
					schedule(e, timers[i], d)
				}
				for e.Step() {
				}
			}
			// Warm: populate the free list and touch the calendar buckets.
			for r := 0; r < 4; r++ {
				cycle()
			}
			if avg := testing.AllocsPerRun(100, cycle); avg > 0 {
				t.Errorf("%s/%s: schedule→fire cycle allocated %.2f/run, want 0", name, form, avg)
			}
		}
	}
}
