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
// tier) and far (heap tier), equal-time bursts, Cancel, Remove (incl.
// double-Remove and remove-after-fire via stale handles), Every with
// mid-run cancel, Step, and RunUntil to barriers both between and exactly
// on event times.

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

func runDifferential(t *testing.T, s diffScript) bool {
	t.Helper()
	rng := rand.New(rand.NewSource(s.seed))

	eng := NewEngine()
	ref := NewReferenceEngine()

	var engLog, refLog []string
	// Live handles for cancel/remove ops. Slots are kept after firing so
	// the script also exercises stale-handle Remove (must be a no-op on
	// both sides).
	var engEvs []*Event
	var refEvs []*RefEvent
	var engCancels, refCancels []func()

	fire := func(log *[]string, tag string, at func() Time) func() {
		return func() { *log = append(*log, fmt.Sprintf("%s@%d", tag, at())) }
	}

	for i := 0; i < s.ops; i++ {
		switch op := rng.Intn(10); op {
		case 0, 1, 2: // schedule near: inside the calendar window
			// Quantize to 10µs so equal-time FIFO ties are common.
			d := Time(rng.Intn(64)) * 10 * Microsecond
			tag := fmt.Sprintf("n%d", i)
			engEvs = append(engEvs, eng.After(d, tag, fire(&engLog, tag, eng.Now)))
			refEvs = append(refEvs, ref.After(d, tag, fire(&refLog, tag, ref.Now)))
		case 3: // schedule far: beyond the ~33ms window, lands in the heap
			d := Time(34+rng.Intn(200)) * Millisecond
			tag := fmt.Sprintf("f%d", i)
			engEvs = append(engEvs, eng.After(d, tag, fire(&engLog, tag, eng.Now)))
			refEvs = append(refEvs, ref.After(d, tag, fire(&refLog, tag, ref.Now)))
		case 4: // equal-time burst: FIFO tie-break must hold
			d := Time(rng.Intn(32)) * 10 * Microsecond
			for j := 0; j < 3; j++ {
				tag := fmt.Sprintf("b%d.%d", i, j)
				engEvs = append(engEvs, eng.After(d, tag, fire(&engLog, tag, eng.Now)))
				refEvs = append(refEvs, ref.After(d, tag, fire(&refLog, tag, ref.Now)))
			}
		case 5: // cancel a random handle (maybe already fired)
			if len(engEvs) > 0 {
				k := rng.Intn(len(engEvs))
				engEvs[k].Cancel()
				refEvs[k].Cancel()
			}
		case 6: // remove a random handle (maybe already fired or removed)
			if len(engEvs) > 0 {
				k := rng.Intn(len(engEvs))
				eng.Remove(engEvs[k])
				ref.Remove(refEvs[k])
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
		case 9: // advance: Step a few, or RunUntil a barrier
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
		if eng.Now() != ref.Now() || eng.Pending() != ref.Pending() {
			t.Errorf("seed %d op %d: now %d vs %d, pending %d vs %d",
				s.seed, i, eng.Now(), ref.Now(), eng.Pending(), ref.Pending())
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

	if eng.Now() != ref.Now() || eng.Pending() != ref.Pending() ||
		eng.NextSeq() != ref.NextSeq() || eng.Processed != ref.Processed {
		t.Errorf("seed %d: final state diverged: now %d/%d pending %d/%d nextSeq %d/%d processed %d/%d",
			s.seed, eng.Now(), ref.Now(), eng.Pending(), ref.Pending(),
			eng.NextSeq(), ref.NextSeq(), eng.Processed, ref.Processed)
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

// TestQueueDifferentialSnapshots interleaves QueueSnapshot comparisons:
// the serialized queue identity (what internal/ckpt captures) must match
// the reference at every point, proving checkpoint fingerprints survive
// the queue swap unchanged.
func TestQueueDifferentialSnapshots(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	eng := NewEngine()
	ref := NewReferenceEngine()
	var engEvs []*Event
	var refEvs []*RefEvent
	for i := 0; i < 400; i++ {
		switch rng.Intn(6) {
		case 0, 1:
			d := Time(rng.Intn(48)) * 10 * Microsecond
			tag := fmt.Sprintf("s%d", i)
			engEvs = append(engEvs, eng.After(d, tag, func() {}))
			refEvs = append(refEvs, ref.After(d, tag, func() {}))
		case 2:
			d := Time(35+rng.Intn(100)) * Millisecond
			tag := fmt.Sprintf("sf%d", i)
			engEvs = append(engEvs, eng.After(d, tag, func() {}))
			refEvs = append(refEvs, ref.After(d, tag, func() {}))
		case 3:
			if len(engEvs) > 0 {
				k := rng.Intn(len(engEvs))
				engEvs[k].Cancel()
				refEvs[k].Cancel()
			}
		case 4:
			if len(engEvs) > 0 {
				k := rng.Intn(len(engEvs))
				eng.Remove(engEvs[k])
				ref.Remove(refEvs[k])
			}
		case 5:
			d := Time(rng.Intn(32)) * 10 * Microsecond
			eng.RunUntil(eng.Now() + d)
			ref.RunUntil(ref.Now() + d)
		}
		got, want := eng.QueueSnapshot(), ref.QueueSnapshot()
		if len(got) != len(want) {
			t.Fatalf("op %d: snapshot length %d, reference %d", i, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("op %d entry %d: %+v vs reference %+v", i, k, got[k], want[k])
			}
		}
	}
}
