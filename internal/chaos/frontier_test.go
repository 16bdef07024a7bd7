package chaos

import (
	"fmt"
	"strings"
	"testing"

	"slingshot/internal/ckpt/wire"
	"slingshot/internal/par"
)

// stubSample fabricates a deterministic sample from the grid coordinates
// alone, so these tests exercise the sweep machinery without fleet runs.
func stubSample(scenario string, ratio float64, seed uint64) (FrontierSample, error) {
	h := wire.Hash64([]byte(fmt.Sprintf("%s|%.2f|%d", scenario, ratio, seed)))
	s := FrontierSample{
		Cells:       4,
		Slots:       100,
		SpareBudget: int(ratio * 4),
		Killed:      2,
		Respared:    1,
		Denied:      1,
		Retries:     int(seed),
		GrantsLocal: 1,
		Fingerprint: h,
	}
	for c := 0; c < s.Cells; c++ {
		s.Dropped = append(s.Dropped, (h>>(4*c))%4)
	}
	return s, nil
}

func TestFrontierDeterministicAcrossWorkers(t *testing.T) {
	spec := FrontierSpec{
		Scenarios: []string{"a", "b", "c"},
		Ratios:    []float64{0, 0.5, 1},
		Seeds:     3,
	}
	var want string
	for _, workers := range []int{1, 4} {
		prev := par.SetWorkers(workers)
		rep, err := Frontier(spec, stubSample)
		par.SetWorkers(prev)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Samples != 27 || len(rep.Points) != 9 {
			t.Fatalf("samples=%d points=%d", rep.Samples, len(rep.Points))
		}
		if want == "" {
			want = rep.String()
		} else if rep.String() != want {
			t.Fatalf("frontier table differs at workers=%d:\n%s\nvs\n%s", workers, rep.String(), want)
		}
	}
	if !strings.Contains(want, "fingerprint: ") {
		t.Fatalf("missing fingerprint line:\n%s", want)
	}
}

func TestFrontierAggregation(t *testing.T) {
	spec := FrontierSpec{Scenarios: []string{"x"}, Ratios: []float64{0.5}, Seeds: 2}
	rep, err := Frontier(spec, func(sc string, ratio float64, seed uint64) (FrontierSample, error) {
		// Seed 1: cells drop {0,1}; seed 2: {2,3}. 100 slots per cell.
		return FrontierSample{
			Cells: 2, Slots: 100, SpareBudget: 1,
			Killed: 1, Respared: 1,
			Dropped: []uint64{2*seed - 2, 2*seed - 1},
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	p := rep.Points[0]
	if p.Killed != 2 || p.Respared != 2 || p.SpareBudget != 1 {
		t.Fatalf("aggregate: %+v", p)
	}
	// 0+1+2+3 dropped of 400 slots → 98.5%.
	if want := 100 * (1 - 6.0/400); p.Availability != want {
		t.Fatalf("availability %.4f want %.4f", p.Availability, want)
	}
	// Sorted per-cell drops {0,1,2,3}: nearest-rank P50 = 1, P99 = max = 3.
	if p.P50 != 1 || p.P99 != 3 || p.Max != 3 {
		t.Fatalf("p50=%d p99=%d max=%d", p.P50, p.P99, p.Max)
	}
}

func TestFrontierErrorCanonicalOrder(t *testing.T) {
	spec := FrontierSpec{Scenarios: []string{"a", "b"}, Ratios: []float64{0, 1}, Seeds: 2}
	_, err := Frontier(spec, func(sc string, ratio float64, seed uint64) (FrontierSample, error) {
		if sc == "b" {
			return FrontierSample{}, fmt.Errorf("boom seed %d", seed)
		}
		return FrontierSample{Cells: 1, Slots: 1}, nil
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	// First failure in grid order: scenario b, ratio 0, seed 1.
	if !strings.Contains(err.Error(), `b ratio=0.00 seed=1`) {
		t.Fatalf("not the canonical first failure: %v", err)
	}
}

func TestFrontierSpecValidation(t *testing.T) {
	if _, err := Frontier(FrontierSpec{Ratios: []float64{1}}, stubSample); err == nil {
		t.Fatal("empty scenarios accepted")
	}
	if _, err := Frontier(FrontierSpec{Scenarios: []string{"a"}}, stubSample); err == nil {
		t.Fatal("empty ratios accepted")
	}
}

func TestFrontierErrOnViolations(t *testing.T) {
	spec := FrontierSpec{Scenarios: []string{"v"}, Ratios: []float64{0}, Seeds: 1}
	rep, err := Frontier(spec, func(sc string, ratio float64, seed uint64) (FrontierSample, error) {
		return FrontierSample{Cells: 1, Slots: 10, Violations: 2}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err() == nil {
		t.Fatal("violating point not surfaced by Err")
	}
}

func TestPctileNearestRank(t *testing.T) {
	s := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		p    float64
		want uint64
	}{{50, 5}, {99, 10}, {100, 10}, {1, 1}} {
		if got := pctile(s, tc.p); got != tc.want {
			t.Fatalf("pctile(%v) = %d want %d", tc.p, got, tc.want)
		}
	}
	if pctile(nil, 50) != 0 {
		t.Fatal("empty pctile")
	}
}
