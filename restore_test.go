package slingshot

// Restore-replay equivalence at every barrier, shard count and worker width,
// into and out of poisoned leases, is the R axis of TestDeterminismMatrix.

import (
	"strings"
	"testing"

	"slingshot/internal/ckpt"
	"slingshot/internal/shard"
	"slingshot/internal/sim"
)

// TestForcedViolationReplayDump is the time-travel acceptance check: a
// run with a forced rogue violation is re-run from the nearest checkpoint
// with the flight recorder armed, and the replayed flight dump must be
// byte-identical to the straight run's — same history, observed twice.
func TestForcedViolationReplayDump(t *testing.T) {
	setAxes(t, cell{W: 4})
	cfg := shard.DefaultConfig(4, 8)
	cfg.Trace = true
	cfg.Horizon = 160 * sim.Millisecond
	cfg.RogueAt = 100 * sim.Millisecond
	cfg.RogueCell = 2
	cfg.Shards = 2

	// Straight run, checkpointing every 20 ms; note the barrier at which
	// the violation first appears.
	f, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	var snaps []*ckpt.Snapshot
	violatedAt := sim.Time(-1)
	every := 20 * sim.Millisecond
	next := sim.Time(0)
	for {
		if f.Now() >= next {
			snaps = append(snaps, ckpt.Capture(f))
			next += every
		}
		done, err := f.Step()
		if err != nil {
			t.Fatal(err)
		}
		if violatedAt < 0 && f.ViolationsLive() > 0 {
			violatedAt = f.Now()
		}
		if done {
			break
		}
	}
	if violatedAt < 0 {
		t.Fatal("rogue knob produced no violation")
	}
	straightDumps := f.FlightDumps()
	if straightDumps[cfg.RogueCell] == "" {
		t.Fatal("no flight dump latched in the rogue cell")
	}
	if !strings.Contains(straightDumps[cfg.RogueCell], "rlc-order-ul") {
		t.Fatalf("unexpected dump contents:\n%s", straightDumps[cfg.RogueCell])
	}

	// Rewind: nearest checkpoint at or before the violation barrier.
	var nearest *ckpt.Snapshot
	for _, s := range snaps {
		if s.At <= violatedAt-cfg.Step && (nearest == nil || s.At > nearest.At) {
			nearest = s
		}
	}
	if nearest == nil {
		t.Fatal("no checkpoint before the violation")
	}
	g, err := ckpt.Restore(nearest)
	if err != nil {
		t.Fatal(err)
	}
	for g.Now() < violatedAt {
		if _, err := g.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if g.ViolationsLive() == 0 {
		t.Fatal("replay did not reproduce the violation")
	}
	replayDumps := g.FlightDumps()
	for i := range straightDumps {
		if replayDumps[i] != straightDumps[i] {
			t.Fatalf("cell %d flight dump differs between straight run and replay:\n--- straight ---\n%s\n--- replay ---\n%s",
				i, straightDumps[i], replayDumps[i])
		}
	}
}
