package mem

import (
	"math"
	"math/cmplx"
	"testing"
)

func TestClassRoundTrip(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 100, 1024, 4096, 354_000, 1 << 22} {
		c := classFor(n)
		if c < 0 {
			t.Fatalf("classFor(%d) out of range", n)
		}
		size := 1 << (minClassShift + c)
		if size < n {
			t.Fatalf("classFor(%d)=%d → capacity %d too small", n, c, size)
		}
		if classUnder(size) != c {
			t.Fatalf("classUnder(%d)=%d, want %d", size, classUnder(size), c)
		}
	}
	if classFor(1<<22+1) != -1 {
		t.Fatal("oversized request must not be pooled")
	}
	if classUnder(63) != -1 {
		t.Fatal("undersized buffer must be dropped, not pooled")
	}
}

func TestBytesRecycle(t *testing.T) {
	b := GetBytes(100)
	if len(b) != 100 || cap(b) < 100 {
		t.Fatalf("GetBytes(100): len=%d cap=%d", len(b), cap(b))
	}
	PutBytes(b)
	c := GetBytes(80)
	if cap(c) != 128 {
		t.Fatalf("expected recycled 128-cap buffer, got cap=%d", cap(c))
	}
}

// TestTrackLeasesPoisons: while TrackLeases is armed each Put poisons
// what it releases — the whole capacity of a slice, and a typed value by
// keeping it out of Reset and out of the pool — and after stop nothing is
// poisoned.
func TestTrackLeasesPoisons(t *testing.T) {
	type thing struct{ n int }
	p := NewPool[thing](func(v *thing) { v.n = 0 })
	stop := TrackLeases()
	b := GetBytes(100)
	PutBytes(b)
	for i, x := range b[:cap(b)] {
		if x != 0xA5 {
			t.Fatalf("released byte %d = %#x, want 0xA5", i, x)
		}
	}
	f := GetFloats(10)
	PutFloats(f)
	for i, x := range f[:cap(f)] {
		if !math.IsNaN(x) {
			t.Fatalf("released float %d = %v, want NaN", i, x)
		}
	}
	c := GetComplex(10)
	PutComplex(c)
	for i, x := range c[:cap(c)] {
		if !cmplx.IsNaN(x) {
			t.Fatalf("released sample %d = %v, want NaN", i, x)
		}
	}
	v := p.Get()
	v.n = 7
	p.Put(v)
	if v.n != 7 {
		t.Fatalf("Put reset the value under TrackLeases: n=%d, want 7", v.n)
	}
	if w := p.Get(); w == v {
		t.Fatal("Put recycled the value under TrackLeases")
	}
	stop()

	b = GetBytes(100)
	b[0] = 1
	PutBytes(b)
	f = GetFloats(10)
	f[0] = 1
	PutFloats(f)
	c = GetComplex(10)
	c[0] = 1
	PutComplex(c)
	if b[0] != 1 || f[0] != 1 || c[0] != 1 {
		t.Fatalf("released after stop: byte %#x, float %v, sample %v; want all 1", b[0], f[0], c[0])
	}
	v.n = 7
	p.Put(v)
	if v.n != 0 {
		t.Fatalf("Put after stop skipped Reset: n=%d", v.n)
	}
}

func TestTypedPool(t *testing.T) {
	type thing struct{ n int }
	p := NewPool[thing](func(v *thing) { v.n = 0 })
	v := p.Get()
	v.n = 7
	p.Put(v)
	w := p.Get()
	if w.n != 0 {
		t.Fatalf("Reset not applied: n=%d", w.n)
	}
}

func TestArenaReleaseAll(t *testing.T) {
	var a Arena
	a.Bytes(100)
	a.Complex(10)
	a.Floats(10)
	if a.Outstanding() != 3 {
		t.Fatalf("Outstanding=%d want 3", a.Outstanding())
	}
	a.ReleaseAll()
	if a.Outstanding() != 0 {
		t.Fatalf("Outstanding after release=%d want 0", a.Outstanding())
	}
}

func TestDoubleFreePanicsUnderDetector(t *testing.T) {
	defer TrackLeases()()
	b := GetBytes(256)
	PutBytes(b)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	PutBytes(b)
}

func TestTrackLeasesCountsOutstanding(t *testing.T) {
	if n := LeakedLeases(); n != -1 {
		t.Fatalf("LeakedLeases before TrackLeases = %d, want -1", n)
	}
	stop := TrackLeases()
	a, b := GetBytes(256), GetBytes(1500)
	if n := LeakedLeases(); n != 2 {
		t.Fatalf("LeakedLeases with two leases out = %d, want 2", n)
	}
	PutBytes(a)
	PutBytes(b)
	if n := LeakedLeases(); n != 0 {
		t.Fatalf("LeakedLeases after both returned = %d, want 0", n)
	}
	stop()
	if n := LeakedLeases(); n != -1 {
		t.Fatalf("LeakedLeases after stop = %d, want -1", n)
	}
	if DetectorArmed() != raceEnabled {
		t.Fatal("stop left the detector armed")
	}
}

func TestAllocsSteadyState(t *testing.T) {
	if detectorOn() {
		t.Skip("detector maps allocate")
	}
	n := testing.AllocsPerRun(100, func() {
		b := GetBytes(512)
		PutBytes(b)
	})
	if n > 0 {
		t.Fatalf("Get/Put cycle allocates %v/op, want 0", n)
	}
}
