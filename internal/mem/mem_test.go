package mem

import "testing"

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
	prev := SetEnabled(true)
	defer SetEnabled(prev)
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

func TestDisabledIsPlainAlloc(t *testing.T) {
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	b := GetBytes(100)
	PutBytes(b) // must be a no-op, not a recycle
	c := GetBytesCap(100)
	if len(c) != 0 || cap(c) < 100 {
		t.Fatalf("GetBytesCap off-mode: len=%d cap=%d", len(c), cap(c))
	}
}

func TestTypedPool(t *testing.T) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
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
	prev := SetEnabled(true)
	defer SetEnabled(prev)
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
	prev := SetEnabled(true)
	defer SetEnabled(prev)
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
	prev := SetEnabled(true)
	defer SetEnabled(prev)
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
	prev := SetEnabled(true)
	defer SetEnabled(prev)
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
