package shard

import (
	"fmt"

	"slingshot/internal/chaos"
	"slingshot/internal/phy"
	"slingshot/internal/sim"
)

// Frontier scenarios: the failure profiles the availability-vs-spare
// sweep compares. "independent" is the PR-5 uncorrelated-kill baseline;
// the rest are the correlated families the reliability literature says
// dominate at fleet scale.
var FrontierScenarios = []string{"independent", "rack-loss", "partition", "upgrade-wave"}

// zonesFor picks a rack layout for a fleet: roughly four cells per rack,
// clamped to [2, 8] zones (and never more zones than cells).
func zonesFor(cells int) int {
	z := cells / 4
	if z < 2 {
		z = 2
	}
	if z > 8 {
		z = 8
	}
	if z > cells {
		z = cells
	}
	return z
}

// CorrelatedConfig returns the fleet config for one named failure
// scenario over a zoned topology. The spare budget is left at the
// topology defaults; ApplySpareRatio overrides it for frontier points.
func CorrelatedConfig(scenario string, cells, ues int) (Config, error) {
	cfg := DefaultConfig(cells, ues)
	cfg.Horizon = 400 * sim.Millisecond
	cfg.Settle = 60 * sim.Millisecond
	cfg.Topo = Topology{
		Zones:            zonesFor(cells),
		ZoneSpares:       1,
		OverflowSpares:   2,
		CrossZonePenalty: 4 * phy.TTI,
	}
	cfg.RecoveryDeadline = 40 * sim.Millisecond
	cfg.MaxRetries = 3
	switch scenario {
	case "independent":
		cfg.Kills = (cells + 3) / 4
	case "rack-loss":
		cfg.RackLosses = 1
	case "partition":
		cfg.Partitions = 2
		cfg.PartitionLen = 12 * sim.Millisecond
		cfg.Kills = (cells + 7) / 8
	case "upgrade-wave":
		cfg.UpgradeWaves = 1
		cfg.WaveStride = 25 * sim.Millisecond
		cfg.UpgradeHold = 30 * sim.Millisecond
	default:
		return Config{}, fmt.Errorf("shard: unknown frontier scenario %q", scenario)
	}
	return cfg, nil
}

// ApplySpareRatio replaces the config's spare budget with
// round(ratio·cells) pooled spares, split across zone pools with the
// remainder in the fleet-global overflow pool.
func ApplySpareRatio(cfg *Config, ratio float64) {
	zones := cfg.Topo.zonesIn(cfg.Cells)
	perZone, overflow := SpareBudget(ratio, cfg.Cells, zones)
	cfg.Spares = 0
	cfg.Topo.ZoneSpares = perZone
	cfg.Topo.OverflowSpares = overflow
}

// FrontierSample runs one frontier grid point — scenario × spare ratio ×
// seed — and folds the fleet report into the sweep's sample form.
// horizon ≤ 0 keeps the scenario default; shards ≤ 0 means GOMAXPROCS,
// as in Config.Shards.
func FrontierSample(scenario string, cells, ues, shards int, horizon sim.Time, ratio float64, seed uint64) (chaos.FrontierSample, error) {
	cfg, err := CorrelatedConfig(scenario, cells, ues)
	if err != nil {
		return chaos.FrontierSample{}, err
	}
	cfg.Seed = seed
	cfg.Shards = shards
	if horizon > 0 {
		cfg.Horizon = horizon
	}
	ApplySpareRatio(&cfg, ratio)
	zones := cfg.Topo.zonesIn(cfg.Cells)
	budget := cfg.Topo.ZoneSpares*zones + cfg.Topo.OverflowSpares

	rep, err := Run(cfg)
	if err != nil {
		return chaos.FrontierSample{}, err
	}
	s := chaos.FrontierSample{
		Cells:       cfg.Cells,
		Slots:       uint64(cfg.Horizon / cfg.Step),
		SpareBudget: budget,
		GrantsLocal: rep.GrantsLocal,
		GrantsCross: rep.GrantsCross,
		Denied:      rep.Denials,
		Violations:  rep.Violations,
		Fingerprint: rep.Fingerprint,
	}
	for _, cs := range rep.Cells {
		s.Dropped = append(s.Dropped, cs.Dropped)
		s.Retries += cs.Retries
		if cs.Killed {
			s.Killed++
		}
		if cs.SpareOK {
			s.Respared++
		}
	}
	return s, nil
}
