package main

import (
	"fmt"
	"slices"

	"slingshot/internal/phy"
)

// stepLow returns, for each step index, the lower quartile of the times the
// replays took for it: the value at sorted position n/4 of the n replays
// that reached the step (the minimum for fewer than four). Replays of one
// seed do identical work at step k, so what a replay spent above the floor
// is host interference, which only ever adds — but the inputs are scaled by
// each replay's measured speed factor (ref.go), and a factor measured a
// few percent high makes a whole replay read a few percent low. The plain
// minimum would hunt for exactly that replay; the lower quartile shrugs
// off one or two of them and still sits below every burst.
func stepLow(reps [][]int64) []int64 {
	n := 0
	for _, r := range reps {
		if len(r) > n {
			n = len(r)
		}
	}
	out := make([]int64, n)
	at := make([]int64, 0, len(reps))
	for k := range out {
		at = at[:0]
		for _, r := range reps {
			if k < len(r) {
				at = append(at, r[k])
			}
		}
		slices.Sort(at)
		out[k] = at[len(at)/4]
	}
	return out
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(float64(len(sorted))*p/100 + 0.999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailPercentile picks the highest percentile that still has at least ten
// samples beyond it among n: a p99 of 300 steps would be its third-worst
// sample, which is an anecdote, not a statistic.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 95, 90, 75} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

func sum(v []int64) int64 {
	var s int64
	for _, x := range v {
		s += x
	}
	return s
}

func sortedCopy(v []int64) []int64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// metric is one named number on the way to stdout.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // sample counts and the like, for the human-readable line
}

// endToEnd folds a workload's timed replays (pinned 2×2 children) and its
// set-up-only children into the eight end-to-end metrics. Step times come
// from the per-step lower quartile across speed-normalised replays, set-up
// from the fastest set-up; counts that replays should agree on to a
// fraction of a percent are medians; simulated values are exact.
func endToEnd(reps, setups []*replay) []metric {
	first := reps[0]
	var windows [][]int64
	var setup, allocs, bytes, rss []float64
	for _, r := range reps {
		windows = append(windows, r.window())
		setup = append(setup, float64(r.setupNs()))
		allocs = append(allocs, float64(r.Mallocs)/r.cellTTIs())
		bytes = append(bytes, float64(r.AllocBytes)/r.cellTTIs())
		rss = append(rss, float64(r.RSSPeakKB)/1024)
	}
	for _, r := range setups {
		setup = append(setup, float64(r.setupNs()))
	}
	steps := stepLow(windows)
	sorted := sortedCopy(steps)
	tail := tailPercentile(len(steps))

	cellTTIs := first.cellTTIs()
	// Simulated, so any replay's copy will do: availability over the whole
	// run's cell·TTIs, goodput over the simulated seconds after Settle.
	runTTIs := float64(first.Cells * (first.SettleSteps + len(first.StepNs)))
	simSec := float64(len(first.StepNs)) * phy.TTI.Seconds()
	return []metric{
		{"setup_s", slices.Min(setup) / 1e9, "s", fmt.Sprintf("min of %d set-ups", len(setup))},
		{"host_ns_per_cell_tti", float64(sum(steps)) / cellTTIs, "ns", fmt.Sprintf("%d replays", len(reps))},
		{"step_us_p99", float64(percentile(sorted, tail)) / 1e3, "us", fmt.Sprintf("p%g of %d steps, median %.1f us", tail, len(steps), float64(percentile(sorted, 50))/1e3)},
		{"allocs_per_cell_tti", median(allocs), "count", ""},
		{"bytes_per_cell_tti", median(bytes), "B", ""},
		{"rss_peak_mb", median(rss), "MiB", ""},
		{"availability_pct", 100 * (1 - float64(first.Dropped)/runTTIs), "%", fmt.Sprintf("%d dropped TTIs", first.Dropped)},
		{"goodput_mbps", float64(first.Bytes) * 8 / simSec / 1e6, "Mb/s", fmt.Sprintf("%d of %d packets", first.Delivered, first.Offered)},
	}
}
