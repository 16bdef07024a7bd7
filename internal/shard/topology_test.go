package shard

import (
	"strings"
	"testing"

	"slingshot/internal/sim"
)

func TestZoneMappingContiguousBalanced(t *testing.T) {
	for _, tc := range []struct{ cells, zones int }{
		{8, 2}, {8, 4}, {10, 3}, {100, 8}, {5, 5}, {7, 1},
	} {
		last := 0
		counts := make([]int, tc.zones)
		for c := 0; c < tc.cells; c++ {
			z := ZoneOf(c, tc.cells, tc.zones)
			if z < last {
				t.Fatalf("cells=%d zones=%d: zone not monotone at cell %d", tc.cells, tc.zones, c)
			}
			if z < 0 || z >= tc.zones {
				t.Fatalf("cells=%d zones=%d: cell %d → zone %d out of range", tc.cells, tc.zones, c, z)
			}
			last = z
			counts[z]++
		}
		min, max := tc.cells, 0
		for z, n := range counts {
			if n != ZoneCells(z, tc.cells, tc.zones) {
				t.Fatalf("ZoneCells(%d,%d,%d) = %d, counted %d", z, tc.cells, tc.zones, ZoneCells(z, tc.cells, tc.zones), n)
			}
			if n < min {
				min = n
			}
			if n > max {
				max = n
			}
		}
		if max-min > 1 {
			t.Fatalf("cells=%d zones=%d: unbalanced zones %v", tc.cells, tc.zones, counts)
		}
	}
}

func TestSpareBudgetSplit(t *testing.T) {
	for _, tc := range []struct {
		ratio             float64
		cells, zones      int
		perZone, overflow int
	}{
		{0, 8, 2, 0, 0},
		{0.25, 8, 2, 1, 0},
		{0.5, 8, 2, 2, 0},
		{1, 8, 2, 4, 0},
		{0.5, 10, 4, 1, 1},
		{1, 7, 3, 2, 1},
		{-1, 8, 2, 0, 0},
	} {
		pz, of := SpareBudget(tc.ratio, tc.cells, tc.zones)
		if pz != tc.perZone || of != tc.overflow {
			t.Fatalf("SpareBudget(%v,%d,%d) = %d,%d want %d,%d",
				tc.ratio, tc.cells, tc.zones, pz, of, tc.perZone, tc.overflow)
		}
	}
}

// rackLossConfig is the acceptance scenario: one full-zone rack loss
// over a 2-zone fleet, spare budget set by ratio.
func rackLossConfig(t *testing.T, ratio float64) Config {
	t.Helper()
	cfg, err := CorrelatedConfig("rack-loss", 8, 48)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 11
	ApplySpareRatio(&cfg, ratio)
	return cfg
}

// TestRackLossRecovery: with zone spares ≥ zone cells, every cell in the
// lost rack recovers within the §8.2 bound (≤3 dropped TTIs each,
// chaos.Checker-enforced) from its own zone's pool.
func TestRackLossRecovery(t *testing.T) {
	cfg := rackLossConfig(t, 1) // 8 spares over 2 zones: 4 ≥ zone cells
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations != 0 {
		t.Fatalf("invariant violations under rack loss:\n%s", rep.String())
	}
	killed, zone := 0, -1
	for _, cs := range rep.Cells {
		if !cs.Killed {
			if cs.Dropped != 0 {
				t.Fatalf("unkilled cell %d dropped %d TTIs", cs.Cell, cs.Dropped)
			}
			continue
		}
		killed++
		if zone == -1 {
			zone = cs.Zone
		}
		if cs.Zone != zone {
			t.Fatalf("rack loss spread over zones %d and %d", zone, cs.Zone)
		}
		if !cs.SpareOK {
			t.Fatalf("killed cell %d not re-spared with full budget:\n%s", cs.Cell, rep.String())
		}
		if cs.CrossSpare {
			t.Fatalf("cell %d took a cross-zone grant with a full local pool", cs.Cell)
		}
		if cs.Dropped > 3 {
			t.Fatalf("cell %d dropped %d TTIs (> §8.2 bound 3)", cs.Cell, cs.Dropped)
		}
	}
	if want := ZoneCells(zone, cfg.Cells, 2); killed != want {
		t.Fatalf("rack loss killed %d cells, zone holds %d", killed, want)
	}
	if rep.GrantsCross != 0 || rep.GrantsLocal != killed {
		t.Fatalf("grants local=%d cross=%d, want %d local", rep.GrantsLocal, rep.GrantsCross, killed)
	}
}

// TestRackLossZeroSpares: with no pool anywhere, the lost rack degrades
// gracefully — denials, ring handover, recorded availability loss — and
// still no invariant violations (in-cell standby failover holds §8.2).
func TestRackLossZeroSpares(t *testing.T) {
	cfg := rackLossConfig(t, 0)
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations != 0 {
		t.Fatalf("zero-spare rack loss must degrade, not violate:\n%s", rep.String())
	}
	killed, droppedSum := 0, uint64(0)
	var handovers uint64
	for _, cs := range rep.Cells {
		handovers += cs.HandoverRx
		if cs.Killed {
			killed++
			droppedSum += cs.Dropped
			if cs.SpareOK {
				t.Fatalf("cell %d re-spared from an empty pool", cs.Cell)
			}
		}
	}
	if killed == 0 {
		t.Fatal("rack loss killed nothing")
	}
	if rep.Grants != 0 || rep.Denials < killed {
		t.Fatalf("grants=%d denials=%d for %d kills", rep.Grants, rep.Denials, killed)
	}
	if handovers == 0 {
		t.Fatal("denied cells never offloaded via ring handover")
	}
	if droppedSum == 0 {
		t.Fatal("availability loss not recorded (no dropped TTIs)")
	}
	hit := rep.Zones[rep.Cells[idxOfFirstKilled(rep)].Zone]
	if hit.Availability >= 100 {
		t.Fatalf("lost zone reports %.4f%% availability", hit.Availability)
	}
}

func idxOfFirstKilled(rep *Report) int {
	for i, cs := range rep.Cells {
		if cs.Killed {
			return i
		}
	}
	return 0
}

// TestZoneExhaustedOverflowGrant: an empty zone pool with overflow
// capacity degrades to cross-zone grants (flagged, penalized) instead of
// denials.
func TestZoneExhaustedOverflowGrant(t *testing.T) {
	cfg, err := CorrelatedConfig("rack-loss", 8, 48)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 11
	cfg.Topo.ZoneSpares = 0
	cfg.Topo.OverflowSpares = cfg.Cells
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations != 0 {
		t.Fatalf("violations:\n%s", rep.String())
	}
	killed := 0
	for _, cs := range rep.Cells {
		if !cs.Killed {
			continue
		}
		killed++
		if !cs.SpareOK || !cs.CrossSpare {
			t.Fatalf("killed cell %d: SpareOK=%v CrossSpare=%v, want overflow grant",
				cs.Cell, cs.SpareOK, cs.CrossSpare)
		}
	}
	if rep.GrantsLocal != 0 || rep.GrantsCross != killed || rep.Denials != 0 {
		t.Fatalf("grants local=%d cross=%d denials=%d for %d kills",
			rep.GrantsLocal, rep.GrantsCross, rep.Denials, killed)
	}
}

// TestUpgradeWaveDenyRetryGrant: a rolling upgrade against an
// undersized pool converges through the deny → backoff retry → grant
// path, fed by upgraded servers releasing back into their zone pools.
func TestUpgradeWaveDenyRetryGrant(t *testing.T) {
	cfg, err := CorrelatedConfig("upgrade-wave", 6, 36)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 5
	ApplySpareRatio(&cfg, 0.25) // 2 spares for 6 cells: denials guaranteed
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations != 0 {
		t.Fatalf("violations:\n%s", rep.String())
	}
	if rep.UpgradeCmds != cfg.Cells {
		t.Fatalf("posted %d upgrade cmds, want %d", rep.UpgradeCmds, cfg.Cells)
	}
	killed, respared, retries := 0, 0, 0
	for _, cs := range rep.Cells {
		if cs.Killed {
			killed++
		}
		if cs.SpareOK {
			respared++
		}
		retries += cs.Retries
	}
	if killed != cfg.Cells {
		t.Fatalf("upgrade wave killed %d of %d cells", killed, cfg.Cells)
	}
	if rep.Denials == 0 {
		t.Fatal("undersized pool never denied — retry path untested")
	}
	if retries == 0 {
		t.Fatal("no backoff retries recorded")
	}
	if respared != killed {
		t.Fatalf("only %d of %d upgraded cells converged to a spare:\n%s",
			respared, killed, rep.String())
	}
	if rep.Released < cfg.Cells {
		t.Fatalf("released %d servers, want ≥ %d (one per upgraded cell)", rep.Released, cfg.Cells)
	}
}

// TestPartitionDefersConservatively: a switch partition drops best-effort
// backhaul and defers everything else to the heal without breaking any
// invariant or the lookahead contract.
func TestPartitionDefersConservatively(t *testing.T) {
	cfg, err := CorrelatedConfig("partition", 8, 48)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 3
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations != 0 {
		t.Fatalf("violations:\n%s", rep.String())
	}
	if rep.PartDeferred+rep.PartDropped == 0 {
		t.Fatalf("partition windows never touched a message:\n%s", rep.String())
	}
	if len(rep.Faults) == 0 || !strings.Contains(rep.String(), "partition zone=") {
		t.Fatalf("fault plan missing partition entries:\n%s", rep.String())
	}
}

// TestOverflowRaceCanonicalOrder: two zones racing for the last
// fleet-global spare resolve in canonical (At, Src, Seq) order — the
// lower Src wins, deterministically.
func TestOverflowRaceCanonicalOrder(t *testing.T) {
	cfg := DefaultConfig(4, 16)
	cfg.Topo = Topology{Zones: 2, ZoneSpares: 0, OverflowSpares: 1}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	at := 100 * sim.Millisecond
	// Post in "wrong" arrival order; the mailbox drains by (At, Src, Seq).
	f.mbox.Post(Message{At: at, Src: 3, Dst: ControllerID, Seq: 1, Kind: KindSpareRequest})
	f.mbox.Post(Message{At: at, Src: 1, Dst: ControllerID, Seq: 1, Kind: KindSpareRequest})
	f.mbox.DrainUpTo(at, func(m Message) {
		if m.Dst == ControllerID {
			f.handleControl(m)
		}
	})
	if !f.granted[1] {
		t.Fatal("Src 1 (canonically first) was not granted the last spare")
	}
	if f.granted[3] {
		t.Fatal("Src 3 also granted — overflow pool oversubscribed")
	}
	if f.grantsCross != 1 || f.denials != 1 {
		t.Fatalf("grantsCross=%d denials=%d, want 1/1", f.grantsCross, f.denials)
	}
	// The duplicate-request guard must hold on a retry racing its grant.
	f.handleControl(Message{At: at + sim.Millisecond, Src: 1, Dst: ControllerID, Seq: 2, Kind: KindSpareRequest})
	if f.dupReqs != 1 || f.grantsCross != 1 {
		t.Fatalf("retry after grant: dupReqs=%d grantsCross=%d, want 1/1", f.dupReqs, f.grantsCross)
	}
	// A release refills the requester's zone pool and re-arms eligibility.
	f.handleControl(Message{At: at + 2*sim.Millisecond, Src: 3, Dst: ControllerID, Seq: 2, Kind: KindSpareRelease})
	if f.released != 1 || f.zoneSpares[1] != 1 {
		t.Fatalf("release not pooled: released=%d zone1=%d", f.released, f.zoneSpares[1])
	}
}

func TestCorrelatedConfigUnknownScenario(t *testing.T) {
	if _, err := CorrelatedConfig("nope", 4, 16); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if _, err := FrontierSample("nope", 4, 16, 1, 0, 0.5, 1); err == nil {
		t.Fatal("FrontierSample accepted unknown scenario")
	}
}

func TestNewKindStrings(t *testing.T) {
	if KindUpgradeKill.String() != "upgrade-kill" || KindSpareRelease.String() != "spare-release" {
		t.Fatalf("kind names: %s, %s", KindUpgradeKill, KindSpareRelease)
	}
}
