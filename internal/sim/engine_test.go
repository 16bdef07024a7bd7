package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500us"},
		{500 * Microsecond, "500.000us"},
		{6200 * Millisecond, "6.200000s"},
		{244 * Millisecond, "244.000ms"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestFromDuration(t *testing.T) {
	if got := FromDuration(500 * time.Microsecond); got != 500*Microsecond {
		t.Fatalf("FromDuration = %v", got)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, "c", func() { order = append(order, 3) })
	e.At(10, "a", func() { order = append(order, 1) })
	e.At(20, "b", func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, "tie", func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO at %d: got %d", i, v)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(10, "x", func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if !ev.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, "later", func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, "past", func() {})
	})
	e.Run()
}

func TestEngineAfterNegativeClamps(t *testing.T) {
	e := NewEngine()
	ran := false
	e.At(100, "setup", func() {
		e.After(-5, "neg", func() { ran = true })
	})
	e.Run()
	if !ran {
		t.Fatal("After with negative delay never ran")
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	e := NewEngine()
	e.At(10, "early", func() {})
	e.At(500, "late", func() {})
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Fatalf("clock = %v, want 100", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.RunUntil(1000)
	if e.Now() != 1000 || e.Pending() != 0 {
		t.Fatalf("after second RunUntil: now=%v pending=%d", e.Now(), e.Pending())
	}
}

func TestEvery(t *testing.T) {
	e := NewEngine()
	var at []Time
	cancel := e.Every(100, 50, "tick", func() { at = append(at, e.Now()) })
	e.At(260, "stop", func() { cancel() })
	e.RunUntil(1000)
	want := []Time{100, 150, 200, 250}
	if len(at) != len(want) {
		t.Fatalf("ticks = %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("tick %d at %v, want %v", i, at[i], want[i])
		}
	}
}

func TestEveryCancelFromWithin(t *testing.T) {
	e := NewEngine()
	n := 0
	var cancel func()
	cancel = e.Every(0, 10, "tick", func() {
		n++
		if n == 3 {
			cancel()
		}
	})
	e.RunUntil(1000)
	if n != 3 {
		t.Fatalf("ticks = %d, want 3", n)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	n := 0
	e.At(1, "a", func() { n++; e.Stop() })
	e.At(2, "b", func() { n++ })
	e.Run()
	if n != 1 {
		t.Fatalf("events after Stop ran: n=%d", n)
	}
	if !e.Stopped() {
		t.Fatal("Stopped() = false")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if NewRNG(42).Fork(uint64(i)).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds look correlated: %d collisions", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	f := func(n uint16) bool {
		v := r.Float64()
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(9)
	f := func(n uint8) bool {
		m := int(n%100) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGBoolProbability(t *testing.T) {
	r := NewRNG(13)
	n, hits := 100000, 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / float64(n)
	if p < 0.28 || p < 0 || p > 0.32 {
		t.Errorf("Bool(0.3) rate = %f", p)
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(17)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(5)
	}
	mean := sum / n
	if mean < 4.8 || mean > 5.2 {
		t.Errorf("Exp(5) mean = %f", mean)
	}
}
