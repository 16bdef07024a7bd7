package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"slingshot/internal/sim"
)

func TestSampleEmpty(t *testing.T) {
	s := NewSample()
	if !math.IsNaN(s.Median()) || !math.IsNaN(s.Mean()) {
		t.Fatal("empty sample should report NaN")
	}
	if s.Count() != 0 {
		t.Fatal("empty sample count != 0")
	}
}

func TestSamplePercentiles(t *testing.T) {
	s := NewSample()
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Min(); got != 1 {
		t.Errorf("Min = %f", got)
	}
	if got := s.Max(); got != 100 {
		t.Errorf("Max = %f", got)
	}
	if got := s.Median(); got != 50.5 {
		t.Errorf("Median = %f, want 50.5", got)
	}
	if got := s.Percentile(99); math.Abs(got-99.01) > 0.02 {
		t.Errorf("P99 = %f", got)
	}
	if got := s.Mean(); got != 50.5 {
		t.Errorf("Mean = %f", got)
	}
}

func TestSamplePercentileMonotonic(t *testing.T) {
	f := func(raw []float64) bool {
		s := NewSample()
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				s.Add(v)
			}
		}
		if s.Count() == 0 {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := s.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeSeriesBinning(t *testing.T) {
	ts := NewTimeSeries(0, 10*sim.Millisecond)
	ts.Add(1*sim.Millisecond, 100)
	ts.Add(9*sim.Millisecond, 50)
	ts.Add(10*sim.Millisecond, 7)
	ts.Add(25*sim.Millisecond, 3)
	if ts.NumBins() != 3 {
		t.Fatalf("NumBins = %d", ts.NumBins())
	}
	if ts.BinSum(0) != 150 || ts.BinSum(1) != 7 || ts.BinSum(2) != 3 {
		t.Fatalf("bins = %f %f %f", ts.BinSum(0), ts.BinSum(1), ts.BinSum(2))
	}
}

func TestTimeSeriesIgnoresBeforeStart(t *testing.T) {
	ts := NewTimeSeries(100*sim.Millisecond, 10*sim.Millisecond)
	ts.Add(50*sim.Millisecond, 1)
	if ts.NumBins() != 0 {
		t.Fatal("observation before start created a bin")
	}
}

func TestTimeSeriesRates(t *testing.T) {
	ts := NewTimeSeries(0, 10*sim.Millisecond)
	// 12500 bytes in 10ms = 1.25 MB/s = 10 Mbps.
	ts.Add(5*sim.Millisecond, 12500)
	if got := ts.RatePerSecond(0); math.Abs(got-1.25e6) > 1 {
		t.Fatalf("RatePerSecond = %f", got)
	}
	if got := ts.Mbps(0); math.Abs(got-10) > 1e-9 {
		t.Fatalf("Mbps = %f", got)
	}
}

func TestTimeSeriesExtendTo(t *testing.T) {
	ts := NewTimeSeries(0, sim.Second)
	ts.ExtendTo(5 * sim.Second)
	if ts.NumBins() != 6 {
		t.Fatalf("NumBins = %d, want 6", ts.NumBins())
	}
	for i := 0; i < 6; i++ {
		if ts.BinSum(i) != 0 {
			t.Fatalf("bin %d not zero", i)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Header: []string{"Metric", "1/s"}}
	tab.AddRow("blackouts", "0")
	out := tab.String()
	if out == "" {
		t.Fatal("empty render")
	}
	for _, want := range []string{"Metric", "blackouts", "---"} {
		if !containsStr(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}
