package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// contract is the part of BENCHMARK.json the harness reads back: the
// metric names it must print and the bound each end-to-end metric carries.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readContract(path string) (*contract, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c := &contract{}
	if err := json.Unmarshal(raw, c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// runSelfcheck is the benchmark's own noise test: two full timed sets of
// the same tree, back to back, must agree on every end-to-end metric
// within the bound BENCHMARK.json gives it (simulated metrics exactly).
// Run it from the repository root, where BENCHMARK.json lives.
func runSelfcheck(o options) error {
	c, err := readContract("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("selfcheck needs the bounds: %w", err)
	}
	var sets [2][]*result
	for pass := range sets {
		for i, ts := range runTimed(o) {
			res := &result{sp: o.workloads[i]}
			ts.fold(res)
			if len(res.problems) > 0 {
				return fmt.Errorf("selfcheck: %s: %s", res.sp.name, res.problems[0])
			}
			sets[pass] = append(sets[pass], res)
		}
	}
	bad := 0
	for i, a := range sets[0] {
		b := sets[1][i]
		if a.fingerprint != b.fingerprint {
			fmt.Printf("%s fingerprint %016x vs %016x: NOT DETERMINISTIC\n", a.sp.name, a.fingerprint, b.fingerprint)
			bad++
		}
		for _, e := range c.EndToEnd {
			va, vb := metricValue(a.metrics, e.Name), metricValue(b.metrics, e.Name)
			// Either set may play the parent: take the better one as the
			// parent and ask how much worse the other is.
			lo, hi := min(va, vb), max(va, vb)
			worse := (hi - lo) / lo
			if e.Better == "higher" {
				worse = (hi - lo) / hi
			}
			verdict := "ok"
			switch {
			case worse > e.Bound:
				verdict = "OUTSIDE BOUND"
				bad++
			case simulated[e.Name] && va != vb:
				verdict = "SIMULATED METRIC MOVED"
				bad++
			}
			fmt.Printf("%s %s %v vs %v %s: %.2f%% apart, bound %.2f%% %s\n",
				a.sp.name, e.Name, va, vb, e.Unit, 100*worse, 100*e.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d check(s) failed between two sets of the same tree", bad)
	}
	return nil
}

// simulated metrics are functions of the seed alone: two sets must agree
// on them to the last digit.
var simulated = map[string]bool{"availability_pct": true, "goodput_mbps": true}

func metricValue(ms []metric, name string) float64 {
	for _, m := range ms {
		if m.name == name {
			return m.value
		}
	}
	return 0
}
