package metrics

import (
	"math"
	"testing"

	"slingshot/internal/sim"
)

// TestPercentileEdgeCases drives Percentile through the degenerate sample
// shapes the experiment harnesses can produce (no observations, a single
// observation, out-of-range p).
func TestPercentileEdgeCases(t *testing.T) {
	cases := []struct {
		name   string
		values []float64
		p      float64
		want   float64 // NaN means "expect NaN"
	}{
		{"empty-p50", nil, 50, math.NaN()},
		{"empty-p0", nil, 0, math.NaN()},
		{"empty-p100", nil, 100, math.NaN()},
		{"single-p0", []float64{7}, 0, 7},
		{"single-p50", []float64{7}, 50, 7},
		{"single-p100", []float64{7}, 100, 7},
		{"single-below-range", []float64{7}, -5, 7},
		{"single-above-range", []float64{7}, 250, 7},
		{"pair-p25", []float64{0, 10}, 25, 2.5},
		{"pair-below-range", []float64{0, 10}, -1, 0},
		{"pair-above-range", []float64{0, 10}, 101, 10},
		{"all-equal-p90", []float64{3, 3, 3, 3}, 90, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSample()
			for _, v := range tc.values {
				s.Add(v)
			}
			got := s.Percentile(tc.p)
			if math.IsNaN(tc.want) {
				if !math.IsNaN(got) {
					t.Fatalf("Percentile(%v) = %v, want NaN", tc.p, got)
				}
				return
			}
			if got != tc.want {
				t.Fatalf("Percentile(%v) = %v, want %v", tc.p, got, tc.want)
			}
		})
	}
}

// TestMeanStdDevEdgeCases covers Mean on empty samples (NaN), single
// samples and NaN/Inf propagation.
func TestMeanStdDevEdgeCases(t *testing.T) {
	cases := []struct {
		name     string
		values   []float64
		mean     float64
		wantNaNs bool
	}{
		{"empty", nil, 0, true},
		{"single", []float64{4}, 4, false},
		{"pair", []float64{2, 4}, 3, false},
		{"nan-observation", []float64{1, math.NaN(), 3}, 0, true},
		{"inf-observation", []float64{math.Inf(1), 1}, math.Inf(1), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSample()
			for _, v := range tc.values {
				s.Add(v)
			}
			mean := s.Mean()
			if tc.wantNaNs {
				// A poisoned or empty sample must surface as NaN (or the
				// propagated Inf for the mean), never as a plausible number.
				if !math.IsNaN(mean) && !math.IsInf(mean, 0) {
					t.Fatalf("Mean = %v, want NaN/Inf", mean)
				}
				return
			}
			if mean != tc.mean {
				t.Fatalf("Mean = %v, want %v", mean, tc.mean)
			}
		})
	}
}

// TestNewTimeSeriesPanicsOnBadWidth pins the constructor contract.
func TestNewTimeSeriesPanicsOnBadWidth(t *testing.T) {
	for _, w := range []sim.Time{0, -sim.Millisecond} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTimeSeries(0, %v) did not panic", w)
				}
			}()
			NewTimeSeries(0, w)
		}()
	}
}

// TestExtendToBeforeStart checks ExtendTo ignores times before the origin.
func TestExtendToBeforeStart(t *testing.T) {
	ts := NewTimeSeries(10*sim.Millisecond, sim.Millisecond)
	ts.ExtendTo(5 * sim.Millisecond)
	if ts.NumBins() != 0 {
		t.Fatalf("ExtendTo before Start materialized %d bins", ts.NumBins())
	}
	ts.ExtendTo(10 * sim.Millisecond)
	if ts.NumBins() != 1 {
		t.Fatalf("ExtendTo(Start) materialized %d bins, want 1", ts.NumBins())
	}
}
