package slingshot

// Seed-determinism property tests: the whole simulation — experiments and
// chaos schedules alike — must be a pure function of its seed. Identical
// seeds reproduce byte-identical reports (the property every "replay the
// failing seed" workflow depends on); different seeds must diverge.

import (
	"testing"
	"time"

	"slingshot/internal/mem"
	"slingshot/internal/par"
)

// TestReportsInvariantToShardCount extends the worker-count contract to
// the sharded fleet: the metro scenario and the fleet-chaos scenario must
// render byte-identical reports at every shard-group count × worker-pool
// width combination. The mailbox's (virtualTime, srcShard, seq) drain
// order is what makes this hold — srcShard is the logical cell index, so
// regrouping cells onto different runner goroutines cannot reorder
// deliveries.
func TestReportsInvariantToShardCount(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: fleet runs at four shard/worker combinations")
	}
	cases := []struct {
		name string
		run  func(shards int) (string, error)
	}{
		{"metro", func(shards int) (string, error) {
			return Metro(MetroOptions{Cells: 6, UEs: 36, Shards: shards, Seed: 11})
		}},
		{"fleet-chaos", func(shards int) (string, error) {
			return Metro(MetroOptions{Cells: 6, UEs: 36, Shards: shards, Seed: 11, Chaos: true})
		}},
		{"metro-trace", func(shards int) (string, error) {
			return Metro(MetroOptions{Cells: 4, UEs: 16, Shards: shards, Seed: 2, Trace: true})
		}},
		// Correlated-failure scenarios ride the same contract: the fault
		// schedule is drawn at build time from the fleet seed's RNG tree,
		// and partition deferral re-posts with untouched (Src, Seq).
		{"rack-loss", func(shards int) (string, error) {
			return Metro(MetroOptions{Cells: 6, UEs: 36, Shards: shards, Seed: 11, Profile: "rack-loss"})
		}},
		// The frontier sweep composes fleet runs via par.Map, so it must be
		// invariant to both knobs at once.
		{"frontier", func(shards int) (string, error) {
			return Frontier(FrontierOptions{
				Cells:     4,
				UEs:       16,
				Shards:    shards,
				Scenarios: []string{"rack-loss", "upgrade-wave"},
				Ratios:    []float64{0, 0.5},
				Horizon:   280 * time.Millisecond,
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := ""
			for _, shards := range []int{1, 4} {
				for _, workers := range []int{1, 4} {
					prev := par.SetWorkers(workers)
					got, err := tc.run(shards)
					par.SetWorkers(prev)
					if err != nil {
						t.Fatalf("shards=%d workers=%d: %v\n%s", shards, workers, err, got)
					}
					if base == "" {
						base = got
					} else if got != base {
						t.Fatalf("report differs at shards=%d workers=%d:\n--- base ---\n%s\n--- got ---\n%s",
							shards, workers, base, got)
					}
				}
			}
		})
	}
}

// TestMetroSoakShardAware: fleet soaks surface per-cell reports through
// the shard-aware chaos.SoakReports path.
func TestMetroSoakShardAware(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: fleet soak")
	}
	if failing, ok := MetroSoak(2, 4, 16); !ok {
		t.Fatalf("fleet soak failed:\n%s", failing)
	}
	// Invalid fleet shapes must fail the soak, not silently pass.
	if _, ok := MetroSoak(1, 2, 1); ok {
		t.Fatal("soak passed a fleet with empty cells")
	}
}

func TestFig8Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("fig8 is slow")
	}
	a, err := RunExperiment("fig8", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunExperiment("fig8", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("fig8 not deterministic:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

func TestChaosDeterministicAcrossRuns(t *testing.T) {
	a, err := Chaos(5, "light")
	if err != nil {
		t.Fatalf("%v\n%s", err, a)
	}
	b, err := Chaos(5, "light")
	if err != nil {
		t.Fatalf("%v\n%s", err, b)
	}
	if a != b {
		t.Fatalf("same chaos seed diverged:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	c, err := Chaos(6, "light")
	if err != nil {
		t.Fatalf("%v\n%s", err, c)
	}
	if a == c {
		t.Fatal("different chaos seeds produced byte-identical reports")
	}
}

func TestChaosUnknownProfile(t *testing.T) {
	if _, err := Chaos(1, "nope"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

// denseCell is the invariance tests' one-hot-cell case: 96 UEs cross the
// RU's parallel-uplink floor, so one cell's UEs are synthesised on different
// workers (every other case has 6 UEs per cell and runs that phase inline).
func denseCell() (string, error) {
	return Metro(MetroOptions{Cells: 1, UEs: 96, Seed: 3, Horizon: 120 * time.Millisecond})
}

// TestReportsInvariantToPooling pins the memory layer's central property:
// buffer recycling (internal/mem and the typed FAPI/packet free lists) only
// changes allocator traffic, never results. Every report — and the
// serialized event trace — must be byte-identical between pooling on and
// the SLINGSHOT_POOL=off escape hatch, or a recycle point is releasing a
// buffer something still reads.
func TestReportsInvariantToPooling(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: full experiment runs at two pooling modes")
	}
	cases := []struct {
		name string
		run  func() (string, error)
	}{
		{"fig8", func() (string, error) { return RunExperiment("fig8", 0.5) }},
		{"chaos", func() (string, error) { return Chaos(5, "light") }},
		{"sec82", func() (string, error) { return RunExperiment("sec82", 0.5) }},
		{"chaos-trace", func() (string, error) {
			_, tr, err := ChaosTraced(5, "light")
			return tr, err
		}},
		{"dense-cell", denseCell},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prev := mem.SetEnabled(true)
			defer mem.SetEnabled(prev)
			pooled, pooledErr := tc.run()
			mem.SetEnabled(false)
			bare, bareErr := tc.run()
			if (pooledErr == nil) != (bareErr == nil) {
				t.Fatalf("error mismatch: pooling on %v, off %v", pooledErr, bareErr)
			}
			if pooled != bare {
				t.Fatalf("report differs between pooling on and SLINGSHOT_POOL=off:\n--- pooled ---\n%s\n--- off ---\n%s", pooled, bare)
			}
		})
	}
}

// TestReportsInvariantToWorkerCount pins the parallel pipeline's central
// property: the worker pool only changes wall-clock time, never results.
// Every report must be byte-identical between the strictly sequential
// schedule (workers=1, the SLINGSHOT_WORKERS=1 escape hatch) and a
// multi-worker pool, regardless of how the OS schedules the workers.
func TestReportsInvariantToWorkerCount(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: full experiment runs at two worker counts")
	}
	cases := []struct {
		name string
		run  func() (string, error)
	}{
		{"fig8", func() (string, error) { return RunExperiment("fig8", 0.5) }},
		{"chaos", func() (string, error) { return Chaos(5, "light") }},
		{"sec82", func() (string, error) { return RunExperiment("sec82", 0.5) }},
		// The serialized event trace (not just the report) must also be
		// byte-identical: emission happens only on the event-loop goroutine,
		// so worker-pool width cannot reorder or drop events.
		{"chaos-trace", func() (string, error) {
			_, tr, err := ChaosTraced(5, "light")
			return tr, err
		}},
		{"dense-cell", denseCell},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prev := par.SetWorkers(1)
			defer par.SetWorkers(prev)
			seq, seqErr := tc.run()
			par.SetWorkers(4)
			parOut, parErr := tc.run()
			if (seqErr == nil) != (parErr == nil) {
				t.Fatalf("error mismatch: workers=1 %v, workers=4 %v", seqErr, parErr)
			}
			if seq != parOut {
				t.Fatalf("report differs between workers=1 and workers=4:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", seq, parOut)
			}
		})
	}
}
