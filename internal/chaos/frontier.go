package chaos

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"slingshot/internal/ckpt/wire"
	"slingshot/internal/par"
)

// FrontierSample is one grid point's raw outcome: a fleet run at one
// (scenario, spare ratio, seed). The runner callback produces it — the
// chaos package owns the sweep and the statistics, the shard package
// owns the fleet, and the callback keeps the dependency pointing the
// right way (shard imports chaos, never the reverse).
type FrontierSample struct {
	Cells       int
	Slots       uint64 // TTI slots per cell over the horizon
	SpareBudget int    // total pooled spares (zone pools + overflow)
	Killed      int
	Respared    int
	Denied      int
	Retries     int
	GrantsLocal int
	GrantsCross int
	Violations  int
	Dropped     []uint64 // per-cell dropped TTIs
	Fingerprint uint64
}

// FrontierSpec is the sweep grid: every scenario × spare ratio is run
// for Seeds seeds (seed values 1..Seeds) and aggregated into one point.
type FrontierSpec struct {
	Scenarios []string
	Ratios    []float64
	Seeds     int
}

// FrontierPoint aggregates one (scenario, ratio) cell of the grid:
// availability is the served fraction of cell·TTI slots across all
// seeds, and P50/P99/Max summarize the per-cell dropped-TTI
// distribution — the SLO view of the same data.
type FrontierPoint struct {
	Scenario     string
	Ratio        float64
	SpareBudget  int
	Availability float64 // percent
	Killed       int
	Respared     int
	Denied       int
	Retries      int
	GrantsLocal  int
	GrantsCross  int
	Violations   int
	P50, P99     uint64
	Max          uint64
}

// FrontierReport is the deterministic result of a sweep.
type FrontierReport struct {
	Spec        FrontierSpec
	Points      []FrontierPoint
	Samples     int
	Fingerprint uint64
}

// Frontier sweeps the scenario × ratio × seed grid through run,
// sharding grid points across internal/par workers. Results are
// assembled in grid order and points aggregated deterministically, so
// the report is byte-identical at any worker count; the first failing
// point in canonical (scenario, ratio, seed) order aborts the sweep.
func Frontier(spec FrontierSpec, run func(scenario string, ratio float64, seed uint64) (FrontierSample, error)) (*FrontierReport, error) {
	if len(spec.Scenarios) == 0 {
		return nil, fmt.Errorf("chaos: frontier needs at least one scenario")
	}
	if len(spec.Ratios) == 0 {
		return nil, fmt.Errorf("chaos: frontier needs at least one spare ratio")
	}
	if spec.Seeds < 1 {
		spec.Seeds = 1
	}

	type res struct {
		s   FrontierSample
		err error
	}
	nR, nS := len(spec.Ratios), spec.Seeds
	total := len(spec.Scenarios) * nR * nS
	results := par.Map(total, func(i int) res {
		sc := spec.Scenarios[i/(nR*nS)]
		ratio := spec.Ratios[(i/nS)%nR]
		seed := uint64(i%nS) + 1
		s, err := run(sc, ratio, seed)
		return res{s, err}
	})
	for i, r := range results {
		if r.err != nil {
			return nil, fmt.Errorf("chaos: frontier %s ratio=%.2f seed=%d: %w",
				spec.Scenarios[i/(nR*nS)], spec.Ratios[(i/nS)%nR], uint64(i%nS)+1, r.err)
		}
	}

	rep := &FrontierReport{Spec: spec, Samples: total}
	for si, sc := range spec.Scenarios {
		for ri, ratio := range spec.Ratios {
			p := FrontierPoint{Scenario: sc, Ratio: ratio}
			var dropped []uint64
			var droppedSum, slotSum uint64
			for s := 0; s < nS; s++ {
				smp := results[(si*nR+ri)*nS+s].s
				p.SpareBudget = smp.SpareBudget
				p.Killed += smp.Killed
				p.Respared += smp.Respared
				p.Denied += smp.Denied
				p.Retries += smp.Retries
				p.GrantsLocal += smp.GrantsLocal
				p.GrantsCross += smp.GrantsCross
				p.Violations += smp.Violations
				slotSum += uint64(smp.Cells) * smp.Slots
				for _, d := range smp.Dropped {
					dropped = append(dropped, d)
					droppedSum += d
				}
			}
			if slotSum > 0 {
				p.Availability = 100 * (1 - float64(droppedSum)/float64(slotSum))
			}
			slices.Sort(dropped)
			p.P50 = pctile(dropped, 50)
			p.P99 = pctile(dropped, 99)
			if n := len(dropped); n > 0 {
				p.Max = dropped[n-1]
			}
			rep.Points = append(rep.Points, p)
		}
	}
	rep.Fingerprint = wire.Hash64([]byte(rep.body()))
	return rep, nil
}

// pctile is the nearest-rank percentile of an ascending-sorted slice.
func pctile(sorted []uint64, p float64) uint64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func (r *FrontierReport) body() string {
	var b strings.Builder
	fmt.Fprintf(&b, "frontier: scenarios=%s ratios=%s seeds=%d samples=%d\n",
		strings.Join(r.Spec.Scenarios, ","), joinRatios(r.Spec.Ratios), r.Spec.Seeds, r.Samples)
	b.WriteString("scenario       ratio spares avail%     killed respared denied retry grants(l+x) p50 p99 max viol\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-14s %5.2f %6d %9.4f %6d %8d %6d %5d %6d+%-4d %3d %3d %3d %4d\n",
			p.Scenario, p.Ratio, p.SpareBudget, p.Availability,
			p.Killed, p.Respared, p.Denied, p.Retries,
			p.GrantsLocal, p.GrantsCross, p.P50, p.P99, p.Max, p.Violations)
	}
	return b.String()
}

// String renders the availability-vs-spare-ratio table with its
// fingerprint. Byte-identical at any shards × workers count.
func (r *FrontierReport) String() string {
	return r.body() + fmt.Sprintf("fingerprint: %016x\n", r.Fingerprint)
}

// Err reports the first invariant-violating point, if any: a frontier
// point may legitimately record availability loss (that is the data),
// but never a cross-layer invariant violation.
func (r *FrontierReport) Err() error {
	for _, p := range r.Points {
		if p.Violations > 0 {
			return fmt.Errorf("chaos: frontier %s ratio=%.2f recorded %d invariant violation(s)",
				p.Scenario, p.Ratio, p.Violations)
		}
	}
	return nil
}

func joinRatios(rs []float64) string {
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = fmt.Sprintf("%.2f", r)
	}
	return strings.Join(parts, ",")
}
