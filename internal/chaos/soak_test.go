package chaos

import (
	"flag"
	"fmt"
	"testing"

	"slingshot/internal/sim"
)

// chaosSeeds is the soak width: `go test ./internal/chaos -chaos.seeds 25`
// runs the default profile over seeds 1..25 and fails with the minimal
// failing seed on any invariant violation.
var chaosSeeds = flag.Int("chaos.seeds", 3, "number of seeds to soak the default chaos profile over")

func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	profile := Default()
	rep, ok := Soak(*chaosSeeds, func(seed uint64) *Report {
		r := Run(seed, profile)
		t.Logf("seed %d: %d events, %d violations, fingerprint %016x",
			seed, len(r.Events), r.TotalViolations, r.Fingerprint)
		return r
	})
	if !ok {
		t.Fatalf("minimal failing seed: %d\n%s", rep.Seed, rep)
	}
}

// TestChaosHeavyProfile drives the two-cell profile with an active and a
// standby kill through a couple of seeds.
func TestChaosHeavyProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy profile skipped in -short mode")
	}
	for seed := uint64(1); seed <= 2; seed++ {
		rep := Run(seed, Heavy())
		if rep.TotalViolations > 0 {
			t.Fatalf("seed %d:\n%s", seed, rep)
		}
		if rep.Migrations == 0 {
			t.Fatalf("seed %d executed no migrations:\n%s", seed, rep)
		}
	}
}

// TestSoakReportsMinimalFailingSeed stubs a violating run and checks the
// soak loop surfaces the smallest failing seed, not just any.
func TestSoakReportsMinimalFailingSeed(t *testing.T) {
	stub := func(seed uint64) *Report {
		rep := &Report{Seed: seed, Profile: "stub"}
		if seed >= 3 { // seeds 3..n all "fail"; 3 is minimal
			rep.TotalViolations = 1
			rep.Violations = []Violation{{Invariant: "stub", Detail: "injected"}}
		}
		return rep
	}
	rep, ok := Soak(10, stub)
	if ok {
		t.Fatal("stubbed violation not detected")
	}
	if rep.Seed != 3 {
		t.Fatalf("reported seed %d, want minimal failing seed 3", rep.Seed)
	}
	if rep.Err() == nil {
		t.Fatal("failing report must return a non-nil Err")
	}
}

// TestSoakReportsShardAware: one seed may span many shards (a fleet's
// per-cell reports); the soak must surface the first failing report in
// (seed, position) order — the minimal seed, then the lowest cell.
func TestSoakReportsShardAware(t *testing.T) {
	stub := func(seed uint64) []*Report {
		// Three "cells" per seed; seed 2 fails in cells 1 and 2.
		out := make([]*Report, 3)
		for cell := range out {
			rep := &Report{Seed: seed, Profile: fmt.Sprintf("fleet-cell%d", cell)}
			if seed == 2 && cell >= 1 {
				rep.TotalViolations = 1
				rep.Violations = []Violation{{Invariant: "stub", Detail: "injected"}}
			}
			out[cell] = rep
		}
		return out
	}
	rep, ok := SoakReports(5, stub)
	if ok {
		t.Fatal("stubbed fleet violation not detected")
	}
	if rep.Seed != 2 || rep.Profile != "fleet-cell1" {
		t.Fatalf("reported seed %d profile %q, want minimal (seed 2, fleet-cell1)", rep.Seed, rep.Profile)
	}

	// All-clean fleets pass.
	if _, ok := SoakReports(3, func(seed uint64) []*Report {
		return []*Report{{Seed: seed}, {Seed: seed}}
	}); !ok {
		t.Fatal("clean fleet soak reported failure")
	}
}

// TestProfiles exercises name resolution and scaling.
func TestProfiles(t *testing.T) {
	for _, name := range []string{"light", "default", "heavy", ""} {
		if _, ok := ByName(name); !ok {
			t.Fatalf("profile %q not resolved", name)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("unknown profile resolved")
	}
	p := Heavy().Scale(0.25)
	if p.Horizon >= Heavy().Horizon {
		t.Fatalf("Scale did not shrink horizon: %v", p.Horizon)
	}
	if p.Kills < 1 {
		t.Fatal("Scale dropped the kill below the floor of 1")
	}
	if full := Default().Scale(1.5); full.Horizon != Default().Horizon {
		t.Fatal("Scale >1 must clamp to the original")
	}
}

// TestPacketStamp round-trips the chaos traffic framing.
func TestPacketStamp(t *testing.T) {
	pkt := stampPacket(dirUp, 42, 12345, 400)
	if len(pkt) != 400 {
		t.Fatalf("len = %d", len(pkt))
	}
	seq, ok := parseSeq(pkt, dirUp)
	if !ok || seq != 12345 {
		t.Fatalf("parseSeq = %d, %v", seq, ok)
	}
	if _, ok := parseSeq(pkt, dirDown); ok {
		t.Fatal("direction tag not enforced")
	}
	if _, ok := parseSeq([]byte("short"), dirUp); ok {
		t.Fatal("short packet parsed")
	}
}

// TestCheckerFlagsRegression feeds the checker a hand-built violating
// observation stream and expects it to fire.
func TestCheckerFlagsRegression(t *testing.T) {
	c := &Checker{
		eng:          sim.NewEngine(),
		lastSlotInd:  make(map[uint16]uint64),
		lastFailover: make(map[uint16]sim.Time),
		droppedTTIs:  make(map[uint16]uint64),
		harqBuf:      make(map[harqKey]uint64),
		ulLast:       make(map[uint16]uint64),
		ulCount:      make(map[uint16]uint64),
		dlLast:       make(map[uint16]uint64),
		dlCount:      make(map[uint16]uint64),
	}
	// Slot regression.
	c.observeSlot(0, 100)
	c.observeSlot(0, 99)
	if c.Total != 1 || c.violations[0].Invariant != "tti-regression" {
		t.Fatalf("regression not flagged: %+v", c.violations)
	}
	// Unexplained gap (no failover in flight).
	c.observeSlot(0, 110)
	if c.Total != 2 {
		t.Fatalf("gap without failover not flagged (total=%d)", c.Total)
	}
	// Gap within a failover window, under the §8.2 bound: allowed.
	c.lastFailover[0] = c.eng.Now()
	c.observeSlot(0, 113)
	if c.Total != 2 {
		t.Fatalf("bounded failover gap wrongly flagged (total=%d)", c.Total)
	}
	// Gap within a failover window but over the bound: flagged.
	c.observeSlot(0, 120)
	if c.Total != 3 {
		t.Fatalf("oversized failover gap not flagged (total=%d)", c.Total)
	}
	// HARQ conservation: retransmission with a different TB hash.
	c.onULDecode(1, 0, 1, 0, true, 0xAAAA, false)
	c.onULDecode(1, 0, 1, 0, false, 0xBBBB, false)
	if c.Total != 4 {
		t.Fatalf("cross-TB combine not flagged (total=%d)", c.Total)
	}
	// Same hash retransmission is fine; decode success releases the buffer.
	c.onULDecode(1, 0, 2, 1, true, 0xCCCC, false)
	c.onULDecode(1, 0, 2, 1, false, 0xCCCC, true)
	c.onULDecode(1, 0, 2, 1, false, 0xDDDD, false) // buffer released: new TB ok
	if c.Total != 4 {
		t.Fatalf("legal HARQ sequence flagged (total=%d)", c.Total)
	}
	// RLC ordering: duplicate sequence number.
	c.ObserveUplink(1, stampPacket(dirUp, 1, 5, 64))
	c.ObserveUplink(1, stampPacket(dirUp, 1, 5, 64))
	if c.Total != 5 {
		t.Fatalf("duplicate delivery not flagged (total=%d)", c.Total)
	}
}
