package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// The differential harness drives the optimized two-tier engine and the
// retained ReferenceEngine (reference_test.go) through the same randomized
// operation sequence and asserts every observable agrees: pop order
// (including equal-time FIFO ties, forced by coarse time quantization),
// clock, Pending, NextSeq, Processed and QueueSnapshot. Operations cover
// everything the production code does to a queue: schedule near (calendar
// tier) and far (heap tier), equal-time bursts, timers Reset and Stopped
// at random (incl. double Stop, Stop after fire and Reset from inside the
// timer's own callback), Every with mid-run cancel, Step, and RunUntil to
// barriers both between and exactly on event times. The reference has no
// timers: Timer.Reset maps to its Remove of the pending handle followed by
// After, and Timer.Stop to Remove.

// diffScript is a reproducible operation sequence.
type diffScript struct {
	seed int64
	ops  int
}

// Generate implements quick.Generator.
func (diffScript) Generate(r *rand.Rand, size int) reflect.Value {
	s := diffScript{seed: r.Int63(), ops: 40 + r.Intn(160)}
	return reflect.ValueOf(s)
}

// diffTimer is one Timer on the engine side and its emulation on the
// reference side: the handle of the reference's pending firing.
type diffTimer struct {
	eng  *Timer
	ref  *RefEvent
	fire func() // the reference side's callback
}

// diffTimers builds matched timer pairs over eng and ref, logging each
// firing to engLog/refLog.
type diffTimers struct {
	eng            *Engine
	ref            *ReferenceEngine
	engLog, refLog *[]string
	all            []*diffTimer
}

// add creates a timer pair. When rearm > 0 the timer Resets itself from
// inside its callback that many times, rearm µs later each time.
func (d *diffTimers) add(tag string, rearm int) *diffTimer {
	dt := &diffTimer{}
	engLeft, refLeft := rearm, rearm
	dt.eng = d.eng.NewTimer(tag, func() {
		*d.engLog = append(*d.engLog, fmt.Sprintf("%s@%d", tag, d.eng.Now()))
		if engLeft > 0 {
			engLeft--
			dt.eng.Reset(Time(rearm) * Microsecond)
		}
	})
	dt.fire = func() {
		*d.refLog = append(*d.refLog, fmt.Sprintf("%s@%d", tag, d.ref.Now()))
		if refLeft > 0 {
			refLeft--
			dt.ref = d.ref.After(Time(rearm)*Microsecond, tag, dt.fire)
		}
	}
	d.all = append(d.all, dt)
	return dt
}

func (d *diffTimers) reset(dt *diffTimer, delay Time) {
	dt.eng.Reset(delay)
	d.ref.Remove(dt.ref)
	dt.ref = d.ref.After(delay, dt.eng.name, dt.fire)
}

func (d *diffTimers) stop(dt *diffTimer) {
	dt.eng.Stop()
	d.ref.Remove(dt.ref)
}

// pick returns a random timer pair, or nil when there is none.
func (d *diffTimers) pick(rng *rand.Rand) *diffTimer {
	if len(d.all) == 0 {
		return nil
	}
	return d.all[rng.Intn(len(d.all))]
}

// sameState reports whether the two engines agree on clock, Pending,
// NextSeq and QueueSnapshot.
func sameState(eng *Engine, ref *ReferenceEngine) error {
	if eng.Now() != ref.Now() || eng.Pending() != ref.Pending() || eng.NextSeq() != ref.NextSeq() {
		return fmt.Errorf("now %d vs %d, pending %d vs %d, nextSeq %d vs %d",
			eng.Now(), ref.Now(), eng.Pending(), ref.Pending(), eng.NextSeq(), ref.NextSeq())
	}
	got, want := eng.QueueSnapshot(), ref.QueueSnapshot()
	if len(got) != len(want) {
		return fmt.Errorf("snapshot length %d, reference %d", len(got), len(want))
	}
	for k := range got {
		if got[k] != want[k] {
			return fmt.Errorf("snapshot entry %d: %+v vs reference %+v", k, got[k], want[k])
		}
	}
	return nil
}

func runDifferential(t *testing.T, s diffScript) bool {
	t.Helper()
	rng := rand.New(rand.NewSource(s.seed))

	eng := NewEngine()
	ref := NewReferenceEngine()

	var engLog, refLog []string
	timers := &diffTimers{eng: eng, ref: ref, engLog: &engLog, refLog: &refLog}
	var engCancels, refCancels []func()

	fire := func(log *[]string, tag string, at func() Time) func() {
		return func() { *log = append(*log, fmt.Sprintf("%s@%d", tag, at())) }
	}
	// delay draws a near (calendar tier, quantized to 10µs so equal-time
	// FIFO ties are common) or, one time in four, far (heap tier) delay.
	delay := func() Time {
		if rng.Intn(4) == 0 {
			return Time(34+rng.Intn(200)) * Millisecond
		}
		return Time(rng.Intn(64)) * 10 * Microsecond
	}

	for i := 0; i < s.ops; i++ {
		switch op := rng.Intn(11); op {
		case 0, 1: // schedule near: inside the calendar window
			d := Time(rng.Intn(64)) * 10 * Microsecond
			tag := fmt.Sprintf("n%d", i)
			eng.After(d, tag, fire(&engLog, tag, eng.Now))
			ref.After(d, tag, fire(&refLog, tag, ref.Now))
		case 2: // schedule far, by absolute time: lands in the heap
			at := eng.Now() + Time(34+rng.Intn(200))*Millisecond
			tag := fmt.Sprintf("f%d", i)
			eng.At(at, tag, fire(&engLog, tag, eng.Now))
			ref.At(at, tag, fire(&refLog, tag, ref.Now))
		case 3: // equal-time burst: FIFO tie-break must hold
			d := Time(rng.Intn(32)) * 10 * Microsecond
			for j := 0; j < 3; j++ {
				tag := fmt.Sprintf("b%d.%d", i, j)
				eng.After(d, tag, fire(&engLog, tag, eng.Now))
				ref.After(d, tag, fire(&refLog, tag, ref.Now))
			}
		case 4: // new timer, sometimes self-resetting from its callback
			rearm := 0
			if rng.Intn(3) == 0 {
				rearm = 1 + rng.Intn(3)
			}
			timers.reset(timers.add(fmt.Sprintf("t%d", i), rearm), delay())
		case 5: // Reset a random timer (pending, fired or stopped)
			if dt := timers.pick(rng); dt != nil {
				timers.reset(dt, delay())
			}
		case 6: // Stop a random timer (maybe already fired or stopped)
			if dt := timers.pick(rng); dt != nil {
				timers.stop(dt)
			}
		case 7: // periodic tick, sometimes near-period, sometimes long
			period := Time(1+rng.Intn(8)) * 100 * Microsecond
			if rng.Intn(4) == 0 {
				period = Time(40+rng.Intn(40)) * Millisecond
			}
			delay := Time(rng.Intn(16)) * 10 * Microsecond
			tag := fmt.Sprintf("e%d", i)
			engCancels = append(engCancels, eng.Every(delay, period, tag, fire(&engLog, tag, eng.Now)))
			refCancels = append(refCancels, ref.Every(delay, period, tag, fire(&refLog, tag, ref.Now)))
		case 8: // cancel a periodic
			if len(engCancels) > 0 {
				k := rng.Intn(len(engCancels))
				engCancels[k]()
				refCancels[k]()
			}
		case 9, 10: // advance: Step a few, or RunUntil a barrier
			if rng.Intn(2) == 0 {
				n := 1 + rng.Intn(4)
				for j := 0; j < n; j++ {
					if eng.Step() != ref.Step() {
						t.Errorf("seed %d: Step() result diverged at op %d", s.seed, i)
						return false
					}
				}
			} else {
				// Barrier sometimes exactly on an event time (quantized),
				// sometimes past the calendar window.
				var d Time
				if rng.Intn(4) == 0 {
					d = Time(30+rng.Intn(60)) * Millisecond
				} else {
					d = Time(rng.Intn(64)) * 10 * Microsecond
				}
				eng.RunUntil(eng.Now() + d)
				ref.RunUntil(ref.Now() + d)
			}
		}
		if err := sameState(eng, ref); err != nil {
			t.Errorf("seed %d op %d: %v", s.seed, i, err)
			return false
		}
	}

	// Stop every periodic so the final drain terminates, then drain both
	// queues completely and compare the full pop order.
	for k := range engCancels {
		engCancels[k]()
		refCancels[k]()
	}
	for eng.Step() {
	}
	for ref.Step() {
	}

	if err := sameState(eng, ref); err != nil || eng.Processed != ref.Processed {
		t.Errorf("seed %d: final state diverged: %v; processed %d/%d", s.seed, err, eng.Processed, ref.Processed)
		return false
	}
	if len(engLog) != len(refLog) {
		t.Errorf("seed %d: fired %d events, reference fired %d", s.seed, len(engLog), len(refLog))
		return false
	}
	for k := range engLog {
		if engLog[k] != refLog[k] {
			t.Errorf("seed %d: pop order diverged at %d: %q vs %q", s.seed, k, engLog[k], refLog[k])
			return false
		}
	}
	return true
}

// TestQueueDifferential is the main randomized differential property.
func TestQueueDifferential(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	if testing.Short() {
		cfg.MaxCount = 15
	}
	if err := quick.Check(func(s diffScript) bool {
		return runDifferential(t, s)
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQueueDifferentialSnapshots interleaves QueueSnapshot comparisons on
// a long timer-heavy script: the serialized queue identity (what
// internal/ckpt captures) must match the reference at every point,
// proving checkpoint fingerprints survive the queue swap unchanged.
func TestQueueDifferentialSnapshots(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	eng := NewEngine()
	ref := NewReferenceEngine()
	var engLog, refLog []string
	timers := &diffTimers{eng: eng, ref: ref, engLog: &engLog, refLog: &refLog}
	for i := 0; i < 400; i++ {
		switch rng.Intn(6) {
		case 0, 1:
			d := Time(rng.Intn(48)) * 10 * Microsecond
			tag := fmt.Sprintf("s%d", i)
			eng.After(d, tag, func() {})
			ref.After(d, tag, func() {})
		case 2:
			d := Time(35+rng.Intn(100)) * Millisecond
			timers.reset(timers.add(fmt.Sprintf("sf%d", i), 0), d)
		case 3:
			if dt := timers.pick(rng); dt != nil {
				timers.reset(dt, Time(rng.Intn(48))*10*Microsecond)
			}
		case 4:
			if dt := timers.pick(rng); dt != nil {
				timers.stop(dt)
			}
		case 5:
			d := Time(rng.Intn(32)) * 10 * Microsecond
			eng.RunUntil(eng.Now() + d)
			ref.RunUntil(ref.Now() + d)
		}
		if err := sameState(eng, ref); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if fmt.Sprint(engLog) != fmt.Sprint(refLog) {
		t.Fatalf("fired logs diverged:\n%v\nreference:\n%v", engLog, refLog)
	}
}
