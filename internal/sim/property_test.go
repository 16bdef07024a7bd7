package sim

// Randomized property tests (testing/quick) for the determinism
// substrate: the RNG's stream independence and Bool() calibration, and
// the event heap's stable (time, insertion-order) execution contract that
// every seed-reproducibility guarantee in the simulator rests on.

import (
	"sort"
	"testing"
	"testing/quick"
)

// TestQuickForkIndependence: streams forked with different ids from the
// same root never coincide, and a fork is not the parent's continuation.
func TestQuickForkIndependence(t *testing.T) {
	prop := func(seed, idA, idB uint64) bool {
		if idA == idB {
			return true
		}
		a := NewRNG(seed).Fork(idA)
		b := NewRNG(seed).Fork(idB)
		parent := NewRNG(seed)
		parent.Uint64() // what Fork consumed
		sameAB, sameAParent := true, true
		for i := 0; i < 64; i++ {
			av := a.Uint64()
			if av != b.Uint64() {
				sameAB = false
			}
			if av != parent.Uint64() {
				sameAParent = false
			}
		}
		return !sameAB && !sameAParent
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickForkReproducible: forking is a pure function of (root state,
// id) — the replay property chaos seeds depend on.
func TestQuickForkReproducible(t *testing.T) {
	prop := func(seed, id uint64) bool {
		a := NewRNG(seed).Fork(id)
		b := NewRNG(seed).Fork(id)
		for i := 0; i < 64; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBoolFrequency: Bool(p) hits p within 6 sigma over 10k draws
// for arbitrary seeds and probabilities.
func TestQuickBoolFrequency(t *testing.T) {
	prop := func(seed uint64, pRaw uint16) bool {
		p := float64(pRaw) / 65535
		r := NewRNG(seed)
		const n = 10000
		hits := 0
		for i := 0; i < n; i++ {
			if r.Bool(p) {
				hits++
			}
		}
		diff := float64(hits)/n - p
		if diff < 0 {
			diff = -diff
		}
		return diff < 0.03 // ≥6 sigma at n=10000
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEngineStableOrder: events fire sorted by timestamp, and events
// sharing a timestamp fire in insertion (FIFO) order — the tie-break that
// keeps identically seeded runs byte-identical.
func TestQuickEngineStableOrder(t *testing.T) {
	prop := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%30) + 2
		r := NewRNG(seed)
		e := NewEngine()
		type key struct {
			at  Time
			idx int
		}
		want := make([]key, 0, n)
		got := make([]key, 0, n)
		for i := 0; i < n; i++ {
			k := key{at: Time(r.Intn(4)+1) * Millisecond, idx: i}
			want = append(want, k)
			kk := k
			e.At(kk.at, "prop", func() { got = append(got, kk) })
		}
		// The contract: stable sort by time, insertion order preserved
		// within a timestamp.
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		e.RunUntil(Second)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEngineCancel: a stopped timer never fires, stopping never
// disturbs other events, and Stop is idempotent.
func TestQuickEngineCancel(t *testing.T) {
	prop := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%30) + 2
		r := NewRNG(seed)
		e := NewEngine()
		fired := make([]bool, n)
		timers := make([]*Timer, n)
		stopped := make([]bool, n)
		for i := 0; i < n; i++ {
			idx := i
			timers[i] = e.NewTimer("prop", func() { fired[idx] = true })
			timers[i].Reset(Time(r.Intn(4)+1) * Millisecond)
		}
		for i := 0; i < n; i++ {
			if r.Bool(0.5) {
				stopped[i] = true
				timers[i].Stop()
				timers[i].Stop() // idempotent
			}
		}
		e.RunUntil(Second)
		for i := 0; i < n; i++ {
			if fired[i] == stopped[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
