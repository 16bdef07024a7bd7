// Package metrics provides the measurement primitives used by the
// experiment harnesses: exact-percentile samples, time-binned series and
// text tables. Experiments are offline and deterministic, so we keep every
// sample and compute exact order statistics instead of approximating.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"slingshot/internal/sim"
)

// Sample accumulates float64 observations and reports order statistics.
type Sample struct {
	values []float64
	sorted bool
}

// NewSample returns an empty sample set.
func NewSample() *Sample { return &Sample{} }

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.values = append(s.values, v)
	s.sorted = false
}

// Count returns the number of observations.
func (s *Sample) Count() int { return len(s.values) }

func (s *Sample) sortValues() {
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (p in [0,100]), interpolating
// linearly between the two closest ranks (rank p/100·(n-1) over the sorted
// observations). It returns NaN on an empty sample.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.values) == 0 {
		return math.NaN()
	}
	s.sortValues()
	if p <= 0 {
		return s.values[0]
	}
	if p >= 100 {
		return s.values[len(s.values)-1]
	}
	rank := p / 100 * float64(len(s.values)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.values[lo]
	}
	frac := rank - float64(lo)
	return s.values[lo]*(1-frac) + s.values[hi]*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(50) }

// Min returns the smallest observation (NaN if empty).
func (s *Sample) Min() float64 { return s.Percentile(0) }

// Max returns the largest observation (NaN if empty).
func (s *Sample) Max() float64 { return s.Percentile(100) }

// Mean returns the arithmetic mean (NaN if empty).
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// TimeSeries bins observations into fixed-width virtual-time buckets,
// summing within each bucket. It backs the per-10ms throughput plots.
type TimeSeries struct {
	BinWidth sim.Time
	Start    sim.Time
	bins     []float64
}

// NewTimeSeries creates a series with the given origin and bin width.
func NewTimeSeries(start sim.Time, binWidth sim.Time) *TimeSeries {
	if binWidth <= 0 {
		panic("metrics: non-positive bin width")
	}
	return &TimeSeries{BinWidth: binWidth, Start: start}
}

// Add accumulates v into the bin containing time at. Times before Start are
// ignored.
func (ts *TimeSeries) Add(at sim.Time, v float64) {
	if at < ts.Start {
		return
	}
	idx := int((at - ts.Start) / ts.BinWidth)
	for idx >= len(ts.bins) {
		ts.bins = append(ts.bins, 0)
	}
	ts.bins[idx] += v
}

// ExtendTo ensures bins exist through time t (so trailing zero bins are
// reported even when no observation landed in them).
func (ts *TimeSeries) ExtendTo(t sim.Time) {
	if t < ts.Start {
		return
	}
	idx := int((t - ts.Start) / ts.BinWidth)
	for idx >= len(ts.bins) {
		ts.bins = append(ts.bins, 0)
	}
}

// NumBins returns the number of materialized bins.
func (ts *TimeSeries) NumBins() int { return len(ts.bins) }

// BinSum returns the accumulated value of bin i.
func (ts *TimeSeries) BinSum(i int) float64 { return ts.bins[i] }

// RatePerSecond returns bin i's sum normalized to a per-second rate. For
// byte counts this yields bytes/sec.
func (ts *TimeSeries) RatePerSecond(i int) float64 {
	return ts.bins[i] * float64(sim.Second) / float64(ts.BinWidth)
}

// Mbps interprets bin sums as byte counts and returns megabits/second for
// bin i.
func (ts *TimeSeries) Mbps(i int) float64 {
	return ts.RatePerSecond(i) * 8 / 1e6
}

// Table renders simple aligned text tables for experiment output.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with column alignment.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
