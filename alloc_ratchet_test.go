package slingshot

import (
	"testing"

	"slingshot/internal/mem"
	"slingshot/internal/shard"
	"slingshot/internal/sim"
)

// TestAllocationRatchet pins the steady-state allocation bill of one fleet
// barrier step, per cell, for a dense cell (cell-dense's shape) and a
// near-idle fleet (metro-wide's, at 8 cells). Each fleet first runs past
// Settle plus one full 33.6 ms calendar window of traffic, so the event
// queues' buckets, the slot rings and the pools have reached their working
// sizes; what is left is what every cell·TTI pays. The ceilings sit just
// above the measured values and only ever move down: a change that removes
// allocations lowers the matching ceiling, one that adds them fails here.
func TestAllocationRatchet(t *testing.T) {
	if testing.Short() {
		t.Skip("settles two fleets; skipped under -short")
	}
	if mem.DetectorArmed() {
		t.Skip("pool double-free detector armed (-race); its bookkeeping allocates")
	}
	for _, tc := range []struct {
		name       string
		cells, ues int
		ceiling    float64 // allocations per cell per step
	}{
		{"dense-1x96", 1, 96, 5},
		{"metro-8x64", 8, 64, 2.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := shard.DefaultConfig(tc.cells, tc.ues)
			// Each run is one 5-slot TDD cycle; eight of them span two
			// traffic periods. AllocsPerRun counts whole allocations per
			// run, so a cycle per run keeps a fifth of a cell·TTI of
			// resolution.
			const cycleSteps, cycles = 5, 8
			warm := cfg.Settle + 34*sim.Millisecond
			cfg.Horizon = warm + (cycles+2)*cycleSteps*cfg.Step
			f, err := shard.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for f.Now() < warm {
				if _, err := f.Step(); err != nil {
					t.Fatal(err)
				}
			}
			cycle := func() {
				for range cycleSteps {
					if done, err := f.Step(); err != nil || done {
						t.Fatalf("step at %v: done %v, err %v", f.Now(), done, err)
					}
				}
			}
			perCell := testing.AllocsPerRun(cycles, cycle) / float64(cycleSteps*tc.cells)
			t.Logf("%.2f allocations per cell·TTI (ceiling %.2f)", perCell, tc.ceiling)
			if perCell > tc.ceiling {
				t.Fatalf("%.2f allocations per cell·TTI, ceiling %.2f", perCell, tc.ceiling)
			}
		})
	}
}
