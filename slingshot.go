// Package slingshot is the public API of the Slingshot reproduction: a
// simulated 5G vRAN deployment with resilient baseband (PHY) processing.
//
// Slingshot (SIGCOMM 2023) makes the vRAN's physical layer resilient to
// server failures and upgrades with three mechanisms, all reproduced here:
//
//   - an in-switch fronthaul middlebox that remaps an RU to a different
//     PHY server at an exact TTI boundary (§5),
//   - an in-switch failure detector that treats the PHY's per-slot
//     downlink packet stream as a natural heartbeat (§5.2), and
//   - Orion, a FAPI middlebox pair that keeps a hot-standby secondary PHY
//     alive with null slot requests and swaps it in on migration (§6).
//
// The package wraps the deployment assembly in internal/core. A minimal
// session:
//
//	d := slingshot.New(slingshot.DefaultOptions())
//	d.Start()
//	d.RunFor(time.Second)
//	d.KillActivePHY()         // in-switch detection + failover
//	d.RunFor(time.Second)     // UEs never notice
//
// Everything runs on a deterministic discrete-event clock; see DESIGN.md
// for how the simulation substitutes for the paper's hardware testbed.
package slingshot

import (
	"fmt"
	"time"

	"slingshot/internal/chaos"
	"slingshot/internal/core"
	"slingshot/internal/experiments"
	"slingshot/internal/shard"
	"slingshot/internal/sim"
)

// UE describes one user device in the deployment.
type UE struct {
	ID   uint16
	Name string
	// SNRdB is the device's average channel quality; ~25 is a good
	// mid-cell phone, <5 is cell edge.
	SNRdB float64
}

// Options configures a deployment.
type Options struct {
	// Seed drives every random stream; equal seeds give identical runs.
	Seed uint64
	// UEs in the cell. Nil selects the paper's three-device set.
	UEs []UE
	// Baseline selects the paper's no-Slingshot hot-backup-vRAN baseline
	// instead of a Slingshot deployment.
	Baseline bool
	// PrimaryFECIters / SecondaryFECIters override the PHY decoder
	// iteration budgets (the live-upgrade experiment's knob). Zero keeps
	// the default (8).
	PrimaryFECIters   int
	SecondaryFECIters int
}

// DefaultOptions returns the three-server, three-UE testbed configuration
// the paper evaluates.
func DefaultOptions() Options {
	return Options{Seed: 1}
}

// Deployment is a running simulated vRAN.
type Deployment struct {
	d *core.Deployment
}

// New builds a deployment.
func New(opts Options) *Deployment {
	cfg := core.DefaultConfig()
	if opts.Seed != 0 {
		cfg.Seed = opts.Seed
	}
	if opts.UEs != nil {
		cfg.UEs = nil
		for _, u := range opts.UEs {
			cfg.UEs = append(cfg.UEs, core.UESpec{ID: u.ID, Name: u.Name, MeanSNRdB: u.SNRdB})
		}
	}
	if opts.PrimaryFECIters != 0 || opts.SecondaryFECIters != 0 {
		cfg.PHYIters = map[uint8]int{}
		if opts.PrimaryFECIters != 0 {
			cfg.PHYIters[cfg.PrimaryServer] = opts.PrimaryFECIters
		}
		if opts.SecondaryFECIters != 0 {
			cfg.PHYIters[cfg.SecondaryServer] = opts.SecondaryFECIters
		}
	}
	if opts.Baseline {
		return &Deployment{d: core.NewBaseline(cfg)}
	}
	return &Deployment{d: core.NewSlingshot(cfg)}
}

// Start brings the deployment up (cells configured, clocks running, UEs
// attached).
func (dep *Deployment) Start() { dep.d.Start() }

// RunFor advances virtual time by d.
func (dep *Deployment) RunFor(d time.Duration) {
	dep.d.Run(dep.d.Engine.Now() + sim.FromDuration(d))
}

// Now returns the current virtual time since deployment start.
func (dep *Deployment) Now() time.Duration {
	return dep.d.Engine.Now().Duration()
}

// At schedules fn at a virtual time offset from now (executed during a
// later RunFor).
func (dep *Deployment) At(d time.Duration, fn func()) {
	dep.d.Engine.After(sim.FromDuration(d), "api.at", fn)
}

// KillActivePHY crashes the PHY currently serving the cell, as the
// experiments' SIGKILL does. With Slingshot, the in-switch detector
// notices within ~450 µs and fails over to the hot standby.
func (dep *Deployment) KillActivePHY() { dep.d.KillActivePHY() }

// Migrate performs a planned zero-downtime PHY migration to the standby
// (the live-upgrade path). It errors on baseline deployments.
func (dep *Deployment) Migrate() error {
	_, err := dep.d.PlannedMigration()
	return err
}

// ActivePHYServer returns the server id currently serving the cell.
func (dep *Deployment) ActivePHYServer() uint8 { return dep.d.ActivePHYServer() }

// SendDownlink injects an application packet towards a UE. It reports
// whether the UE had a bearer.
func (dep *Deployment) SendDownlink(ue uint16, pkt []byte) bool {
	return dep.d.SendDownlink(ue, pkt)
}

// SendUplink injects an application packet from a UE.
func (dep *Deployment) SendUplink(ue uint16, pkt []byte) bool {
	u, ok := dep.d.UEs[ue]
	if !ok || !u.Connected() {
		return false
	}
	u.SendUplink(pkt)
	return true
}

// OnUplink registers the application-server-side sink for uplink packets.
func (dep *Deployment) OnUplink(fn func(ue uint16, pkt []byte)) {
	dep.d.OnUplink(fn)
}

// OnDownlink registers a UE-side sink for downlink packets.
func (dep *Deployment) OnDownlink(ue uint16, fn func(pkt []byte)) error {
	u, ok := dep.d.UEs[ue]
	if !ok {
		return fmt.Errorf("slingshot: unknown UE %d", ue)
	}
	u.OnDownlink = fn
	return nil
}

// UEConnected reports whether a UE currently has a radio connection.
func (dep *Deployment) UEConnected(ue uint16) bool {
	u, ok := dep.d.UEs[ue]
	return ok && u.Connected()
}

// Detections returns the virtual times at which the in-switch detector
// declared a PHY failure.
func (dep *Deployment) Detections() []time.Duration {
	out := make([]time.Duration, len(dep.d.Switch.DetectionLog))
	for i, t := range dep.d.Switch.DetectionLog {
		out[i] = t.Duration()
	}
	return out
}

// Migrations returns how many fronthaul migrations the switch executed.
func (dep *Deployment) Migrations() int { return len(dep.d.Switch.MigrationLog) }

// Stop tears the deployment down (clocks, timers).
func (dep *Deployment) Stop() { dep.d.Stop() }

// Experiments lists the paper-reproduction experiment ids runnable via
// RunExperiment (one per table/figure in §8 of the paper).
func Experiments() []string { return experiments.List() }

// Chaos runs one deterministic fault-injection schedule against a fresh
// Slingshot deployment: the seed fully determines the fault times,
// targets and packet-level perturbations, and a cross-layer invariant
// checker (TTI monotonicity, the §8.2 dropped-TTI bound, HARQ soft-buffer
// conservation, RLC ordering, boundary-only switch migration, UE
// continuity) watches the run. profile is "light", "default"/"" or
// "heavy". The report text is returned even on violation; the error is
// non-nil when any invariant broke or the profile is unknown.
func Chaos(seed uint64, profile string) (string, error) {
	p, ok := chaos.ByName(profile)
	if !ok {
		return "", fmt.Errorf("slingshot: unknown chaos profile %q (have light, default, heavy)", profile)
	}
	rep := chaos.Run(seed, p)
	return rep.String(), rep.Err()
}

// ChaosTraced is Chaos plus the run's serialized event trace: every chaos
// run records cross-layer events (TTIs, decodes, HARQ, fronthaul faults,
// failovers, invariant verdicts) into a bounded ring on virtual time, and
// the returned trace text is the deterministic rendering of that ring —
// byte-identical for equal seeds regardless of worker-pool width. On an
// invariant violation the report already embeds the flight-recorder dump
// (the last events before the first violation plus counter deltas); the
// full trace returned here is the wider window around it.
func ChaosTraced(seed uint64, profile string) (report, eventTrace string, err error) {
	p, ok := chaos.ByName(profile)
	if !ok {
		return "", "", fmt.Errorf("slingshot: unknown chaos profile %q (have light, default, heavy)", profile)
	}
	rep, rec := chaos.RunTraced(seed, p)
	return rep.String(), rec.Serialize() + rec.Metrics().Exposition(), rep.Err()
}

// MetroOptions configures a sharded multi-cell (metro-scale) run: Cells
// independent per-cell deployments advance in lockstep on the
// internal/par pool and exchange cross-cell traffic through a
// deterministic inter-shard mailbox.
type MetroOptions struct {
	// Cells and UEs size the fleet; UEs spread evenly across cells.
	Cells int
	UEs   int
	// Shards is the runner-group count (0 = GOMAXPROCS). Purely an
	// execution knob: the report is byte-identical at any value.
	Shards int
	// Seed drives the whole fleet; equal seeds give identical reports.
	Seed uint64
	// Horizon overrides the virtual run length (0 keeps the scenario
	// default).
	Horizon time.Duration
	// Chaos switches to the fleet-chaos scenario: PHY kills across a
	// quarter of the fleet contending for a half-sized pooled-spare set,
	// plus a migration storm — with the §8.2 ≤3-dropped-TTI invariant
	// checked per cell.
	Chaos bool
	// Profile selects a correlated-failure scenario over a zoned
	// topology instead: "independent", "rack-loss", "partition" or
	// "upgrade-wave" (see shard.CorrelatedConfig). Takes precedence over
	// Chaos when both are set.
	Profile string
	// Trace aggregates every cell's counters into the report.
	Trace bool
}

// Metro runs a sharded multi-cell scenario and returns its deterministic
// report. The error is non-nil when the run could not be built or any
// cell violated a cross-layer invariant (the report text is returned
// either way when the fleet ran).
func Metro(opts MetroOptions) (string, error) {
	cfg := shard.DefaultConfig(opts.Cells, opts.UEs)
	if opts.Chaos {
		cfg = shard.ChaosConfig(opts.Cells, opts.UEs)
	}
	if opts.Profile != "" {
		c, err := shard.CorrelatedConfig(opts.Profile, opts.Cells, opts.UEs)
		if err != nil {
			return "", err
		}
		cfg = c
	}
	if opts.Seed != 0 {
		cfg.Seed = opts.Seed
	}
	if opts.Shards != 0 {
		cfg.Shards = opts.Shards
	}
	if opts.Horizon != 0 {
		cfg.Horizon = sim.FromDuration(opts.Horizon)
	}
	cfg.Trace = opts.Trace
	rep, err := shard.Run(cfg)
	if err != nil {
		return "", err
	}
	return rep.String(), rep.Err()
}

// MetroSoak soaks the fleet-chaos scenario over seeds 1..n, reporting the
// first per-cell invariant violation in (seed, cell) order. The returned
// report text is empty when every seed passed.
func MetroSoak(n, cells, ues int) (string, bool) {
	failing, ok := chaos.SoakReports(n, func(seed uint64) []*chaos.Report {
		cfg := shard.ChaosConfig(cells, ues)
		cfg.Seed = seed
		f, err := shard.New(cfg)
		if err != nil {
			return []*chaos.Report{soakError(seed, err)}
		}
		rep, err := f.Run()
		if err != nil {
			return []*chaos.Report{soakError(seed, err)}
		}
		return f.CellReports(rep)
	})
	if ok {
		return "", true
	}
	return failing.String(), false
}

// FrontierOptions configures an availability-vs-spare-ratio sweep: a
// scenario × spare-ratio × seed grid of fleet runs, aggregated into a
// deterministic frontier table (availability plus the per-cell
// dropped-TTI P50/P99/max SLO view).
type FrontierOptions struct {
	// Cells and UEs size every fleet run in the grid (defaults 8 / 48).
	Cells int
	UEs   int
	// Shards is the execution knob (0 = GOMAXPROCS); the table is
	// byte-identical at any value.
	Shards int
	// Seeds runs each grid point for seeds 1..Seeds (default 1).
	Seeds int
	// Scenarios defaults to every frontier scenario: independent,
	// rack-loss, partition, upgrade-wave.
	Scenarios []string
	// Ratios are the pooled-spares-per-cell budgets to sweep (default
	// 0, 0.25, 0.5, 1).
	Ratios []float64
	// Horizon overrides each run's virtual length (0 keeps the scenario
	// default, 400ms).
	Horizon time.Duration
}

// Frontier sweeps spare-pool budgets against independent and correlated
// failure scenarios and returns the availability-vs-spare-ratio table.
// The error is non-nil when a run could not be built or any grid point
// recorded a cross-layer invariant violation (availability loss alone is
// data, not an error).
func Frontier(opts FrontierOptions) (string, error) {
	if opts.Cells == 0 {
		opts.Cells = 8
	}
	if opts.UEs == 0 {
		opts.UEs = opts.Cells * 6
	}
	spec := chaos.FrontierSpec{Scenarios: opts.Scenarios, Ratios: opts.Ratios, Seeds: opts.Seeds}
	if len(spec.Scenarios) == 0 {
		spec.Scenarios = shard.FrontierScenarios
	}
	if len(spec.Ratios) == 0 {
		spec.Ratios = []float64{0, 0.25, 0.5, 1}
	}
	rep, err := chaos.Frontier(spec, func(scenario string, ratio float64, seed uint64) (chaos.FrontierSample, error) {
		return shard.FrontierSample(scenario, opts.Cells, opts.UEs, opts.Shards,
			sim.FromDuration(opts.Horizon), ratio, seed)
	})
	if err != nil {
		return "", err
	}
	return rep.String(), rep.Err()
}

// soakError renders a fleet build/run failure as a failing soak report so
// it surfaces instead of silently passing the seed.
func soakError(seed uint64, err error) *chaos.Report {
	r := &chaos.Report{
		Seed:            seed,
		Profile:         "fleet-error",
		TotalViolations: 1,
		Violations:      []chaos.Violation{{Invariant: "fleet-run", Detail: err.Error()}},
	}
	r.Finalize()
	return r
}

// RunExperiment regenerates one of the paper's tables/figures and returns
// its textual report. scale in (0,1] shrinks long experiments (1 =
// paper-scale durations).
func RunExperiment(id string, scale float64) (string, error) {
	r, err := experiments.Run(id, scale)
	if err != nil {
		return "", err
	}
	return r.String(), nil
}
