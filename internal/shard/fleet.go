package shard

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"strings"

	"slingshot/internal/chaos"
	"slingshot/internal/ckpt/wire"
	"slingshot/internal/core"
	"slingshot/internal/mem"
	"slingshot/internal/par"
	"slingshot/internal/phy"
	"slingshot/internal/sim"
	"slingshot/internal/trace"
)

// Config describes a fleet run. Everything that can change the report is
// here; the shard-group count and worker-pool width are deliberately NOT
// rendered into the report, because the determinism contract says they
// must not matter.
type Config struct {
	// Cells is the fleet size; UEs is the total device count, spread
	// evenly across cells (per-cell count capped at 104 by the carrier's
	// PRB budget).
	Cells int
	UEs   int

	// Shards is the runner-group count: cells are partitioned into this
	// many groups, each advanced by one internal/par worker per lockstep
	// step. 0 means GOMAXPROCS. Purely an execution knob — reports are
	// byte-identical for any value.
	Shards int

	// Seed drives every per-cell deployment seed and the fault schedule.
	Seed uint64

	// Horizon is the virtual run length; Step is the lockstep barrier
	// interval (default one TTI). Settle is the fault-free warmup.
	Horizon sim.Time
	Step    sim.Time
	Settle  sim.Time

	// TrafficPeriod/PacketBytes shape the per-UE background load
	// (sequence-stamped packets, checked for in-order delivery).
	TrafficPeriod sim.Time
	PacketBytes   int

	// BackhaulPeriod is the X2 load-report interval per cell;
	// BackhaulLatency is the inter-shard delivery latency (floored at
	// Step — the conservative-synchronization lookahead).
	BackhaulPeriod  sim.Time
	BackhaulLatency sim.Time

	// Fault plan: Kills crashes the active PHY of that many distinct
	// cells (drawn from the seed); each killed cell asks the controller
	// for one of Spares pooled spare PHYs. Migrations is a fleet-wide
	// storm of controller-ordered planned migrations. With a zoned
	// Topology, Spares folds into the pools: zone 0's pool for a flat
	// fleet, the overflow pool otherwise.
	Kills      int
	Spares     int
	Migrations int

	// Topo groups cells into failure zones and homes spare capacity; the
	// zero value is a flat single-zone fleet (PR-5 behavior).
	Topo Topology

	// Correlated fault families, all drawn from the fleet seed's RNG
	// tree at build time so schedules are shard/worker invariant:
	// RackLosses kills every active PHY in that many distinct zones
	// simultaneously; Partitions cuts a zone off the inter-shard fabric
	// for PartitionLen (messages deferred to the window's end, backhaul
	// load reports dropped); UpgradeWaves rolls a maintenance kill
	// across zones with WaveStride between zones, each upgraded server
	// rejoining its zone's spare pool after UpgradeHold.
	RackLosses   int
	Partitions   int
	PartitionLen sim.Time
	UpgradeWaves int
	WaveStride   sim.Time
	UpgradeHold  sim.Time

	// RecoveryDeadline arms per-cell retry/backoff on the spare
	// protocol: a killed cell that is not re-spared within the deadline
	// re-requests, doubling the deadline each attempt, up to MaxRetries
	// extra attempts. 0 disables retries (PR-5 behavior).
	RecoveryDeadline sim.Time
	MaxRetries       int

	// Trace arms a per-cell trace recorder and aggregates every cell's
	// counters into the report (shard-tagged via the fleet registry).
	Trace bool

	// RogueAt, when positive, injects a deliberately out-of-order stamped
	// packet into RogueCell's invariant checker at that virtual time — a
	// deterministic forced violation for exercising the flight recorder
	// and slingshotd's checkpoint auto-replay. Zero (the default) leaves
	// the run untouched: reports are byte-identical to earlier PRs.
	RogueAt   sim.Time
	RogueCell int
}

// maxUEsPerCell keeps every UE at ≥1 PRB under the L2's equal-share
// allocator (dsp.MaxPRB = 106, minus headroom for allocation rounding).
const maxUEsPerCell = 104

// DefaultConfig returns a metro scenario: cells/ues as given, no faults,
// ring backhaul reporting, light per-UE traffic.
func DefaultConfig(cells, ues int) Config {
	return Config{
		Cells:           cells,
		UEs:             ues,
		Seed:            1,
		Horizon:         150 * sim.Millisecond,
		Step:            phy.TTI,
		Settle:          40 * sim.Millisecond,
		TrafficPeriod:   10 * sim.Millisecond,
		PacketBytes:     96,
		BackhaulPeriod:  20 * sim.Millisecond,
		BackhaulLatency: 2 * phy.TTI,
	}
}

// ChaosConfig returns the fleet-chaos scenario: kills across a quarter of
// the fleet contending for a half-sized spare pool, plus a migration
// storm — the §8.2 bound must hold per cell throughout.
func ChaosConfig(cells, ues int) Config {
	cfg := DefaultConfig(cells, ues)
	cfg.Horizon = 300 * sim.Millisecond
	cfg.Kills = (cells + 3) / 4
	cfg.Spares = (cfg.Kills + 1) / 2
	cfg.Migrations = cells / 2
	return cfg
}

// CellStat is one cell's aggregated outcome.
type CellStat struct {
	Cell       int
	Zone       int
	UEs        int
	UL, DL     uint64 // delivered in-order application packets
	BackhaulRx uint64
	HandoverRx uint64
	Digest     uint64 // order-sensitive hash of received messages
	Dropped    uint64 // total dropped TTIs (§8.2 gap sum)
	Active     uint8  // serving PHY server at end of run
	Violations int
	Retries    int // spare re-requests after a missed recovery deadline
	UpgSkipped int // upgrade-kill steps refused for lack of redundancy
	Killed     bool
	SpareOK    bool // granted a pooled spare after its kill
	CrossSpare bool // the grant came from the overflow pool
	Upgraded   bool // took a rolling-upgrade maintenance kill
}

// ZoneStat aggregates one failure zone's outcome, including its
// availability: the fraction of cell·TTI slots not lost to failover
// gaps, the quantity the frontier sweep trades against spare budget.
type ZoneStat struct {
	Zone         int
	Cells        int
	Killed       int
	Respared     int
	GrantsLocal  int
	GrantsCross  int
	Denied       int
	Retries      int
	Dropped      uint64
	Availability float64 // percent of cell·TTI slots served
}

// Report is the deterministic outcome of one fleet run.
type Report struct {
	Cfg          Config
	Cells        []CellStat
	Zones        []ZoneStat
	Faults       []string // build-time correlated fault plan, draw order
	Grants       int      // GrantsLocal + GrantsCross
	GrantsLocal  int
	GrantsCross  int
	Denials      int
	DupReqs      int // retries that raced an in-flight grant
	Released     int // spare units returned to zone pools
	MigrateCmds  int
	UpgradeCmds  int
	PartDeferred uint64 // messages deferred past a partition window
	PartDropped  uint64 // backhaul reports dropped inside a window
	Exchanged    uint64 // inter-shard messages delivered
	Violations   int
	violations   []string
	counters     string // aggregated exposition (Trace only)
	Fingerprint  uint64
}

func (r *Report) body() string {
	var b strings.Builder
	c := r.Cfg
	fmt.Fprintf(&b, "fleet run: cells=%d ues=%d seed=%d horizon=%.3fs step=%dus\n",
		c.Cells, c.UEs, c.Seed, float64(c.Horizon)/float64(sim.Second), int64(c.Step/sim.Microsecond))
	fmt.Fprintf(&b, "fault plan: kills=%d spares=%d migrations=%d settle=%.3fs\n",
		c.Kills, c.Spares, c.Migrations, float64(c.Settle)/float64(sim.Second))
	zones := c.Topo.zonesIn(c.Cells)
	if zones > 1 || c.RackLosses > 0 || c.Partitions > 0 || c.UpgradeWaves > 0 || c.RecoveryDeadline > 0 {
		fmt.Fprintf(&b, "topology: zones=%d zone-spares=%d overflow=%d cross-penalty=%dus\n",
			zones, c.Topo.ZoneSpares, c.Topo.OverflowSpares,
			int64(c.Topo.CrossZonePenalty/sim.Microsecond))
		fmt.Fprintf(&b, "correlated: rack-losses=%d partitions=%d(len=%dus) upgrade-waves=%d(stride=%dus hold=%dus) deadline=%dus retries=%d\n",
			c.RackLosses, c.Partitions, int64(c.PartitionLen/sim.Microsecond),
			c.UpgradeWaves, int64(c.WaveStride/sim.Microsecond), int64(c.UpgradeHold/sim.Microsecond),
			int64(c.RecoveryDeadline/sim.Microsecond), c.MaxRetries)
	}
	for _, fl := range r.Faults {
		fmt.Fprintf(&b, "  fault: %s\n", fl)
	}
	for _, cs := range r.Cells {
		flags := ""
		if cs.Killed {
			flags = " killed"
			if cs.SpareOK {
				flags += "+respared"
				if cs.CrossSpare {
					flags += "-cross"
				}
			}
		}
		if cs.Upgraded {
			flags += " upgraded"
		}
		if cs.UpgSkipped > 0 {
			flags += fmt.Sprintf(" upg-skipped=%d", cs.UpgSkipped)
		}
		if cs.Retries > 0 {
			flags += fmt.Sprintf(" retries=%d", cs.Retries)
		}
		zone := ""
		if zones > 1 {
			zone = fmt.Sprintf("z=%d ", cs.Zone)
		}
		fmt.Fprintf(&b, "cell %4d: %sues=%d ul=%d dl=%d bh=%d ho=%d digest=%016x dropped=%d active=%d viol=%d%s\n",
			cs.Cell, zone, cs.UEs, cs.UL, cs.DL, cs.BackhaulRx, cs.HandoverRx,
			cs.Digest, cs.Dropped, cs.Active, cs.Violations, flags)
	}
	for _, z := range r.Zones {
		fmt.Fprintf(&b, "zone %2d: cells=%d killed=%d respared=%d grants=%d+%d denied=%d retries=%d dropped=%d avail=%.4f%%\n",
			z.Zone, z.Cells, z.Killed, z.Respared, z.GrantsLocal, z.GrantsCross,
			z.Denied, z.Retries, z.Dropped, z.Availability)
	}
	fmt.Fprintf(&b, "controller: grants=%d denials=%d migrate-cmds=%d exchanged=%d\n",
		r.Grants, r.Denials, r.MigrateCmds, r.Exchanged)
	if r.GrantsCross > 0 || r.Released > 0 || r.DupReqs > 0 || r.UpgradeCmds > 0 ||
		r.PartDeferred > 0 || r.PartDropped > 0 {
		fmt.Fprintf(&b, "degradation: grants-local=%d grants-cross=%d released=%d dup-reqs=%d upgrade-cmds=%d deferred=%d dropped-msgs=%d\n",
			r.GrantsLocal, r.GrantsCross, r.Released, r.DupReqs, r.UpgradeCmds,
			r.PartDeferred, r.PartDropped)
	}
	fmt.Fprintf(&b, "violations: %d\n", r.Violations)
	for _, v := range r.violations {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	b.WriteString(r.counters)
	return b.String()
}

// String renders the report with its fingerprint line. Byte-identical for
// equal configs at any shard-group count and worker-pool width.
func (r *Report) String() string {
	return r.body() + fmt.Sprintf("fingerprint: %016x\n", r.Fingerprint)
}

// Err is non-nil when any cell violated a cross-layer invariant.
func (r *Report) Err() error {
	if r.Violations == 0 {
		return nil
	}
	first := ""
	if len(r.violations) > 0 {
		first = ": " + r.violations[0]
	}
	return fmt.Errorf("shard: fleet seed %d violated %d invariant(s)%s", r.Cfg.Seed, r.Violations, first)
}

const fnvPrime = uint64(0x100000001b3)

// fnvMix folds uint64s into a running FNV-1a hash, each little-endian
// (wire.HashU64 folds big-endian).
func fnvMix(h uint64, vs ...uint64) uint64 {
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			h ^= uint64(byte(v >> (8 * i)))
			h *= fnvPrime
		}
	}
	return h
}

// cellSim is one logical shard: a full single-cell deployment on its own
// engine, plus its outbox and fleet-visible stats. All fields are touched
// only by the goroutine currently stepping the shard (between barriers)
// or by the coordinator (at barriers) — never both at once.
type cellSim struct {
	idx int
	d   *core.Deployment
	eng *sim.Engine
	chk *chaos.Checker
	rec *trace.Recorder

	msgSeq uint64
	out    [][]byte // encoded wire frames accumulated this step

	stat     CellStat
	attempts int      // spare requests sent so far (retry/backoff)
	ulSeq    []uint64 // per-UE stamp sequences (index = UE id - 1)
	dlSeq    []uint64
	cancel   []func()
}

// send encodes one message into the shard's outbox. Runs on the cell's
// engine (any runner goroutine); only this shard touches its outbox.
func (cs *cellSim) send(dst uint16, kind Kind, latency sim.Time, a, b uint64, payload []byte) {
	cs.msgSeq++
	m := Message{
		At:      cs.eng.Now() + latency,
		Src:     uint16(cs.idx),
		Dst:     dst,
		Seq:     cs.msgSeq,
		Kind:    kind,
		A:       a,
		B:       b,
		Payload: payload,
	}
	buf := m.AppendEncode(mem.GetBytesCap(m.EncodedLen()))
	cs.out = append(cs.out, buf)
}

// onMessage handles one delivered inter-shard message on the cell's own
// engine at the message's virtual delivery time.
func (cs *cellSim) onMessage(f *Fleet, m Message) {
	cs.stat.Digest = fnvMix(cs.stat.Digest, uint64(m.Src), m.Seq, uint64(m.Kind), m.A, m.B)
	for _, by := range m.Payload {
		cs.stat.Digest = fnvMix(cs.stat.Digest, uint64(by))
	}
	switch m.Kind {
	case KindBackhaul:
		cs.stat.BackhaulRx++
	case KindHandover:
		cs.stat.HandoverRx++
	case KindSpareGrant:
		cs.onSpareGrant(f, m)
	case KindSpareDeny:
		// Pool exhausted: run unprotected and offload load units to the
		// ring neighbor so the fleet rebalances.
		cs.send(uint16((cs.idx+1)%f.cfg.Cells), KindHandover, f.latency, m.A, 0, nil)
	case KindMigrateCmd:
		// Controller-ordered switch-rule update: plan a zero-downtime
		// migration to the standby. Refusals (dead standby) are fine.
		cs.d.PlannedMigrationOf(cs.d.Cfg.Cell)
	case KindUpgradeKill:
		cs.onUpgradeKill(f)
	}
}

// spareUsable reports whether the cell's local spare slot can still
// absorb a grant: the spare server exists, has not crashed, and is not
// already serving the cell.
func (cs *cellSim) spareUsable() bool {
	spare := cs.d.Cfg.SpareServer
	if spare == 0 {
		return false
	}
	p := cs.d.PHYs[spare]
	if p == nil || p.Crashed() {
		return false
	}
	return cs.d.ActivePHYServerOf(cs.d.Cfg.Cell) != spare
}

// onSpareGrant consumes a pooled-spare grant: reprovision the standby
// from Orion's stored CONFIG (§6.3). A grant the cell cannot use — a
// retry raced an earlier grant, or the spare slot died meanwhile — is
// returned to the pool so capacity is conserved.
func (cs *cellSim) onSpareGrant(f *Fleet, m Message) {
	if !cs.stat.SpareOK && cs.spareUsable() {
		if err := cs.d.ProvisionSpare(cs.d.Cfg.Cell); err == nil {
			cs.stat.SpareOK = true
			cs.stat.CrossSpare = m.B == 1
			return
		}
	}
	cs.send(ControllerID, KindSpareRelease, f.latency, m.A, 0, nil)
}

// onUpgradeKill executes one rolling-upgrade step: only a fully
// redundant cell (healthy active + healthy standby) takes the
// maintenance kill, failing over to the standby within the §8.2 bound;
// the upgraded server rejoins its zone's spare pool after the hold.
// Cells without redundancy skip the step rather than strand their UEs.
func (cs *cellSim) onUpgradeKill(f *Fleet) {
	cell := cs.d.Cfg.Cell
	active := cs.d.ActivePHYServerOf(cell)
	standby := cs.d.L2Orion.StandbyServer(cell)
	ap, sp := cs.d.PHYs[active], cs.d.PHYs[standby]
	if ap == nil || ap.Crashed() || standby == 0 || sp == nil || sp.Crashed() {
		cs.stat.UpgSkipped++
		return
	}
	cs.d.KillServer(active)
	cs.stat.Killed = true
	cs.stat.Upgraded = true
	// The drained server finishes its upgrade after the hold and rejoins
	// the fleet as zone spare capacity.
	cs.send(ControllerID, KindSpareRelease, f.cfg.UpgradeHold, 0, 0, nil)
	cs.requestSpare(f)
}

// requestSpare asks the controller for a pooled spare and, when a
// recovery deadline is configured, arms a backoff timer that re-requests
// (doubling the deadline each attempt) until the cell is re-spared or
// MaxRetries extra attempts are exhausted.
func (cs *cellSim) requestSpare(f *Fleet) {
	if cs.stat.SpareOK || !cs.spareUsable() {
		return
	}
	cs.attempts++
	attempt := cs.attempts
	cs.send(ControllerID, KindSpareRequest, f.latency, uint64(attempt), 0, nil)
	if f.cfg.RecoveryDeadline <= 0 || attempt > f.cfg.MaxRetries {
		return
	}
	wait := f.cfg.RecoveryDeadline << uint(attempt-1)
	cs.eng.After(wait, "fleet.spare-retry", func() {
		if cs.stat.SpareOK {
			return
		}
		cs.stat.Retries++
		cs.requestSpare(f)
	})
}

// Fleet is the sharded multi-cell engine.
type Fleet struct {
	cfg     Config
	latency sim.Time
	cells   []*cellSim
	groups  [][]int
	mbox    Mailbox

	// Zone topology (zones ≥ 1; zoneOf maps cell → zone).
	zones  int
	zoneOf []int
	parts  []partWindow
	faults []string

	// Controller state, touched only at barriers on the coordinator.
	ctlSeq      uint64
	zoneSpares  []int
	overflow    int
	granted     map[uint16]bool
	grantsLocal int
	grantsCross int
	denials     int
	dupReqs     int
	released    int
	zGrantL     []int
	zGrantX     []int
	zDeny       []int
	migPlan     []migCmd
	migPosted   int
	upgPlan     []migCmd
	upgPosted   int
	partDefer   uint64
	partDrop    uint64
	exchanged   uint64
	reg         *trace.Registry

	// Lifecycle for incremental stepping (Start/Step/Finish): now is the
	// last completed barrier, so it is the only virtual time at which the
	// fleet's state is globally consistent and snapshot-safe.
	started  bool
	now      sim.Time
	finished *Report
}

// zoned reports whether this run renders topology/zone lines: any
// multi-zone layout or correlated-fault/deadline knob. Flat PR-5 configs
// keep their exact report shape.
func (c Config) zoned() bool {
	return c.Topo.zonesIn(c.Cells) > 1 || c.RackLosses > 0 || c.Partitions > 0 ||
		c.UpgradeWaves > 0 || c.RecoveryDeadline > 0
}

// faulty reports whether any fault family can kill a PHY, which decides
// whether cells are built with a provisionable spare slot.
func (c Config) faulty() bool {
	return c.Kills > 0 || c.RackLosses > 0 || c.UpgradeWaves > 0
}

type migCmd struct {
	at   sim.Time
	cell int
}

// compare orders commands by (at, cell): every field, so commands that
// compare equal are identical and an unstable sort is deterministic.
func (m migCmd) compare(o migCmd) int {
	return cmp.Or(cmp.Compare(m.at, o.at), cmp.Compare(m.cell, o.cell))
}

// New validates the config and builds the fleet: one deployment per cell,
// faults scheduled, tickers armed. Call Run to execute.
func New(cfg Config) (*Fleet, error) {
	if cfg.Cells < 1 {
		return nil, fmt.Errorf("shard: need at least one cell (got %d)", cfg.Cells)
	}
	if cfg.Cells > int(ControllerID) {
		return nil, fmt.Errorf("shard: cell count %d overflows shard id space", cfg.Cells)
	}
	perCell := cfg.UEs / cfg.Cells
	if perCell < 1 {
		return nil, fmt.Errorf("shard: %d UEs over %d cells leaves empty cells", cfg.UEs, cfg.Cells)
	}
	if perCell > maxUEsPerCell {
		return nil, fmt.Errorf("shard: %d UEs/cell exceeds the %d-UE carrier budget", perCell, maxUEsPerCell)
	}
	if cfg.Step <= 0 {
		cfg.Step = phy.TTI
	}
	if cfg.Horizon < cfg.Step {
		return nil, fmt.Errorf("shard: horizon %v shorter than one step %v", cfg.Horizon, cfg.Step)
	}
	if cfg.Settle >= cfg.Horizon {
		// Short metro-smoke horizons: warm up for a quarter of the run.
		cfg.Settle = cfg.Horizon / 4
	}
	if cfg.BackhaulLatency < cfg.Step {
		// The conservative-synchronization lookahead: a message sent
		// during step (T-Δ, T] must not be deliverable before T.
		cfg.BackhaulLatency = cfg.Step
	}
	if cfg.Kills > cfg.Cells {
		cfg.Kills = cfg.Cells
	}
	zones := cfg.Topo.zonesIn(cfg.Cells)
	if cfg.RackLosses > zones {
		cfg.RackLosses = zones
	}
	if cfg.Partitions > 0 && cfg.PartitionLen <= 0 {
		cfg.PartitionLen = 10 * sim.Millisecond
	}
	if cfg.UpgradeWaves > 0 {
		if cfg.WaveStride <= 0 {
			cfg.WaveStride = 20 * sim.Millisecond
		}
		if cfg.UpgradeHold <= 0 {
			cfg.UpgradeHold = 30 * sim.Millisecond
		}
		if cfg.UpgradeHold < cfg.Step {
			// Releases ride the mailbox, so the hold must respect the
			// conservative-synchronization lookahead.
			cfg.UpgradeHold = cfg.Step
		}
	}
	if cfg.RecoveryDeadline > 0 {
		if cfg.RecoveryDeadline < 2*cfg.BackhaulLatency {
			// A deadline shorter than one request/grant round trip would
			// always fire a spurious retry.
			cfg.RecoveryDeadline = 2 * cfg.BackhaulLatency
		}
		if cfg.MaxRetries <= 0 {
			cfg.MaxRetries = 3
		}
	} else {
		cfg.MaxRetries = 0
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > cfg.Cells {
		shards = cfg.Cells
	}

	f := &Fleet{cfg: cfg, latency: cfg.BackhaulLatency, zones: zones}
	if cfg.Trace {
		f.reg = trace.NewRegistry()
	}

	// Zone layout and spare pools. The legacy flat Spares budget folds
	// into zone 0 for a single-zone fleet (those grants stay "local") and
	// into the cross-zone overflow pool otherwise.
	f.zoneOf = make([]int, cfg.Cells)
	for i := range f.zoneOf {
		f.zoneOf[i] = ZoneOf(i, cfg.Cells, zones)
	}
	f.zoneSpares = make([]int, zones)
	for z := range f.zoneSpares {
		f.zoneSpares[z] = cfg.Topo.ZoneSpares
	}
	f.overflow = cfg.Topo.OverflowSpares
	if zones == 1 {
		f.zoneSpares[0] += cfg.Spares
	} else {
		f.overflow += cfg.Spares
	}
	f.granted = make(map[uint16]bool)
	f.zGrantL = make([]int, zones)
	f.zGrantX = make([]int, zones)
	f.zDeny = make([]int, zones)

	// Partition cells into contiguous runner groups (balanced within 1).
	f.groups = make([][]int, shards)
	for i := 0; i < cfg.Cells; i++ {
		g := i * shards / cfg.Cells
		f.groups[g] = append(f.groups[g], i)
	}

	root := sim.NewRNG(cfg.Seed ^ 0x5417AD0F1EE7C311)
	killRNG := root.Fork(1)
	migRNG := root.Fork(2)
	rackRNG := root.Fork(3)
	waveRNG := root.Fork(4)
	partRNG := root.Fork(5)

	for i := 0; i < cfg.Cells; i++ {
		f.cells = append(f.cells, f.buildCell(i, perCell))
	}

	// Kills hit distinct cells at seed-drawn times inside the fault
	// window; each killed cell asks the controller for a pooled spare.
	if cfg.Kills > 0 {
		lo, hi := cfg.Settle, cfg.Horizon-60*sim.Millisecond
		if hi <= lo {
			hi = lo + 10*sim.Millisecond
		}
		perm := killRNG.Perm(cfg.Cells)
		for k := 0; k < cfg.Kills; k++ {
			cs := f.cells[perm[k]]
			t := lo + sim.Time(killRNG.Float64()*float64(hi-lo))
			cs.eng.At(t, "fleet.kill", func() { f.execKill(cs) })
		}
	}

	// Migration storm: controller-ordered planned migrations, posted
	// through the mailbox at their due barrier.
	if cfg.Migrations > 0 {
		lo, hi := cfg.Settle, cfg.Horizon-40*sim.Millisecond
		if hi <= lo {
			hi = lo + 10*sim.Millisecond
		}
		for k := 0; k < cfg.Migrations; k++ {
			f.migPlan = append(f.migPlan, migCmd{
				at:   lo + sim.Time(migRNG.Float64()*float64(hi-lo)),
				cell: migRNG.Intn(cfg.Cells),
			})
		}
		slices.SortFunc(f.migPlan, migCmd.compare)
	}

	// Rack losses: each hits one distinct zone, killing every active PHY
	// in the zone at the same instant — the correlated case pooled
	// spares exist for.
	if cfg.RackLosses > 0 {
		lo, hi := cfg.Settle, cfg.Horizon-80*sim.Millisecond
		if hi <= lo {
			hi = lo + 10*sim.Millisecond
		}
		perm := rackRNG.Perm(zones)
		for k := 0; k < cfg.RackLosses; k++ {
			z := perm[k]
			t := lo + sim.Time(rackRNG.Float64()*float64(hi-lo))
			f.faults = append(f.faults, fmt.Sprintf("rack-loss zone=%d at=%dus", z, int64(t/sim.Microsecond)))
			for _, cs := range f.cells {
				if f.zoneOf[cs.idx] != z {
					continue
				}
				cs := cs
				cs.eng.At(t, "fleet.rack-loss", func() { f.execKill(cs) })
			}
		}
	}

	// Switch partitions: a zone falls off the inter-shard fabric for a
	// window. Deferral happens at drain time (see exchange), so the
	// schedule only needs the windows.
	if cfg.Partitions > 0 {
		lo, hi := cfg.Settle, cfg.Horizon-cfg.PartitionLen-40*sim.Millisecond
		if hi <= lo {
			hi = lo + 10*sim.Millisecond
		}
		for k := 0; k < cfg.Partitions; k++ {
			z := partRNG.Intn(zones)
			t := lo + sim.Time(partRNG.Float64()*float64(hi-lo))
			f.parts = append(f.parts, partWindow{zone: z, start: t, end: t + cfg.PartitionLen})
			f.faults = append(f.faults, fmt.Sprintf("partition zone=%d window=[%dus,%dus)",
				z, int64(t/sim.Microsecond), int64((t+cfg.PartitionLen)/sim.Microsecond)))
		}
	}

	// Rolling upgrade waves: zone z's cells take their maintenance kill
	// at start + z·stride, posted through the mailbox like migration
	// commands (so a partitioned zone's upgrade defers to the heal).
	if cfg.UpgradeWaves > 0 {
		span := sim.Time(zones) * cfg.WaveStride
		lo, hi := cfg.Settle, cfg.Horizon-span-120*sim.Millisecond
		if hi <= lo {
			hi = lo + 10*sim.Millisecond
		}
		for w := 0; w < cfg.UpgradeWaves; w++ {
			start := lo + sim.Time(waveRNG.Float64()*float64(hi-lo))
			f.faults = append(f.faults, fmt.Sprintf("upgrade-wave start=%dus stride=%dus",
				int64(start/sim.Microsecond), int64(cfg.WaveStride/sim.Microsecond)))
			for ci := 0; ci < cfg.Cells; ci++ {
				f.upgPlan = append(f.upgPlan, migCmd{at: start + sim.Time(f.zoneOf[ci])*cfg.WaveStride, cell: ci})
			}
		}
		slices.SortFunc(f.upgPlan, migCmd.compare)
	}

	// Forced violation: feed the checker a stamped packet pair whose
	// sequence runs backwards on a flow id no real UE uses, so exactly one
	// deterministic rlc-order violation latches (arming the flight
	// recorder) without perturbing any real traffic stream.
	if cfg.RogueAt > 0 {
		if cfg.RogueCell < 0 || cfg.RogueCell >= cfg.Cells {
			return nil, fmt.Errorf("shard: rogue cell %d outside fleet of %d", cfg.RogueCell, cfg.Cells)
		}
		cs := f.cells[cfg.RogueCell]
		f.faults = append(f.faults, fmt.Sprintf("rogue cell=%d at=%dus", cfg.RogueCell, int64(cfg.RogueAt/sim.Microsecond)))
		cs.eng.At(cfg.RogueAt, "fleet.rogue", func() {
			const rogueFlow = uint16(0xFFFE)
			cs.chk.ObserveUplink(rogueFlow, chaos.TrafficPacket(false, rogueFlow, 2, 32))
			cs.chk.ObserveUplink(rogueFlow, chaos.TrafficPacket(false, rogueFlow, 1, 32))
		})
	}
	return f, nil
}

// buildCell constructs one logical shard: a single-cell deployment whose
// seed tree, cell scrambling seed and UE population derive only from the
// fleet seed and the cell index.
func (f *Fleet) buildCell(idx, perCell int) *cellSim {
	ccfg := core.DefaultConfig()
	ccfg.Seed = f.cfg.Seed*0x9E3779B97F4A7C15 + uint64(idx+1)
	ccfg.Cell = 0
	ccfg.CellSeed = 0x517E ^ uint64(idx)*0x1001
	if f.cfg.faulty() {
		ccfg.SpareServer = 3
	}
	ccfg.UEs = nil
	for j := 0; j < perCell; j++ {
		ccfg.UEs = append(ccfg.UEs, core.UESpec{
			ID:        uint16(j + 1),
			Name:      fmt.Sprintf("c%d-u%d", idx, j+1),
			MeanSNRdB: 16 + float64((7*idx+13*j)%12),
		})
	}
	if f.cfg.Trace {
		ccfg.Trace = trace.NewRecorder(512)
	}

	d := core.NewSlingshot(ccfg)
	cs := &cellSim{
		idx:   idx,
		d:     d,
		eng:   d.Engine,
		rec:   ccfg.Trace,
		ulSeq: make([]uint64, perCell),
		dlSeq: make([]uint64, perCell),
		stat:  CellStat{Cell: idx, Zone: f.zoneOf[idx], UEs: perCell},
	}
	cs.chk = chaos.Attach(d)

	// Delivered-traffic sinks feed the invariant checker and the stats.
	d.OnUplink(func(ueID uint16, pkt []byte) {
		cs.chk.ObserveUplink(ueID, pkt)
		cs.stat.UL++
	})
	for j := 0; j < perCell; j++ {
		u := d.UEs[uint16(j+1)]
		uid := uint16(j + 1)
		inner := u.OnDownlink
		u.OnDownlink = func(pkt []byte) {
			cs.chk.ObserveDownlink(uid, pkt)
			cs.stat.DL++
			if inner != nil {
				inner(pkt)
			}
		}
	}

	// Background traffic: one stamped UL+DL packet per UE per period,
	// stopping early so tails drain before the horizon.
	if f.cfg.TrafficPeriod > 0 {
		// Stop traffic before the horizon so in-flight tails drain; short
		// metro-smoke horizons scale the margin down.
		drain := f.cfg.Horizon / 5
		if drain > 30*sim.Millisecond {
			drain = 30 * sim.Millisecond
		}
		stopAt := f.cfg.Horizon - drain
		var tick func()
		tick = func() {
			for j := 0; j < perCell; j++ {
				id := uint16(j + 1)
				cs.ulSeq[j]++
				d.UEs[id].SendUplink(chaos.TrafficPacket(false, id, cs.ulSeq[j], f.cfg.PacketBytes))
				cs.dlSeq[j]++
				d.SendDownlink(id, chaos.TrafficPacket(true, id, cs.dlSeq[j], f.cfg.PacketBytes))
			}
			if cs.eng.Now()+f.cfg.TrafficPeriod < stopAt {
				cs.eng.After(f.cfg.TrafficPeriod, "fleet.traffic", tick)
			}
		}
		cs.eng.At(f.cfg.Settle, "fleet.traffic", tick)
	}

	// Ring backhaul: periodic load reports to the next cell. The phase
	// offset staggers cells so a barrier never sees a thundering herd.
	if f.cfg.BackhaulPeriod > 0 && f.cfg.Cells > 1 {
		dst := uint16((idx + 1) % f.cfg.Cells)
		phase := sim.Time(idx%16) * 31 * sim.Microsecond
		cancel := cs.eng.Every(f.cfg.Settle+phase, f.cfg.BackhaulPeriod, "fleet.backhaul", func() {
			var load [8]byte
			putU64(load[:], cs.stat.UL+cs.stat.DL)
			cs.send(dst, KindBackhaul, f.latency, cs.stat.UL, cs.stat.DL, load[:])
		})
		cs.cancel = append(cs.cancel, cancel)
	}
	return cs
}

// execKill crashes the cell's active PHY (in-switch detection fails the
// cell over to its standby) and asks the controller for a pooled spare to
// restore redundancy.
func (f *Fleet) execKill(cs *cellSim) {
	active := cs.d.ActivePHYServerOf(cs.d.Cfg.Cell)
	p := cs.d.PHYs[active]
	if p == nil || p.Crashed() {
		return
	}
	cs.d.KillServer(active)
	cs.stat.Killed = true
	cs.requestSpare(f)
}

// post enqueues one controller-originated message.
func (f *Fleet) post(dst uint16, kind Kind, at sim.Time, a, b uint64) {
	f.ctlSeq++
	f.mbox.Post(Message{At: at, Src: ControllerID, Dst: dst, Seq: f.ctlSeq, Kind: kind, A: a, B: b})
}

// exchange is the barrier step: collect every shard's outbox in cell
// order, decode the wire frames into the mailbox, post due controller
// commands, then drain everything due before `next` in (At, Src, Seq)
// order — scheduling deliveries on the destination engines. Runs only on
// the coordinator goroutine, with every shard parked at time `now`.
func (f *Fleet) exchange(now, next sim.Time) error {
	for _, cs := range f.cells {
		for _, frame := range cs.out {
			m, err := DecodePooled(frame)
			mem.PutBytes(frame)
			if err != nil {
				return fmt.Errorf("shard: cell %d produced an undecodable frame: %w", cs.idx, err)
			}
			if m.At <= now {
				return fmt.Errorf("shard: message %v violates the lookahead (barrier at %v)", m, now)
			}
			f.mbox.Post(m)
		}
		cs.out = cs.out[:0]
	}

	// Controller: migration-storm and upgrade-wave commands fall due on
	// the barrier grid.
	for f.migPosted < len(f.migPlan) && f.migPlan[f.migPosted].at <= now {
		cmd := f.migPlan[f.migPosted]
		f.migPosted++
		f.post(uint16(cmd.cell), KindMigrateCmd, now+f.latency, 0, 0)
	}
	for f.upgPosted < len(f.upgPlan) && f.upgPlan[f.upgPosted].at <= now {
		cmd := f.upgPlan[f.upgPosted]
		f.upgPosted++
		f.post(uint16(cmd.cell), KindUpgradeKill, now+f.latency, 0, 0)
	}

	f.mbox.DrainUpTo(next, func(m Message) {
		// Switch partition: a message touching a partitioned zone inside
		// its window is deferred to the heal (best-effort backhaul load
		// reports are dropped outright). Re-posting with only At changed
		// keeps the canonical (At, Src, Seq) order shard-invariant, and
		// the window end is strictly after `now`, so conservative
		// synchronization still holds.
		if w := f.partitionAt(m); w != nil {
			if m.Kind == KindBackhaul {
				f.partDrop++
				mem.PutBytes(m.Payload)
				return
			}
			f.partDefer++
			held := m
			held.At = w.end
			f.mbox.Post(held)
			return
		}
		f.exchanged++
		if m.Dst == ControllerID {
			f.handleControl(m)
			mem.PutBytes(m.Payload)
			return
		}
		if int(m.Dst) >= len(f.cells) {
			mem.PutBytes(m.Payload)
			return // fuzz-grade safety; the fleet never addresses outside itself
		}
		dst := f.cells[m.Dst]
		held := m
		dst.eng.At(m.At, "fleet.deliver", func() {
			dst.onMessage(f, held)
			// The handlers digest the payload but never retain it; the
			// pooled copy DecodePooled leased goes back at delivery.
			mem.PutBytes(held.Payload)
		})
	})
	return nil
}

// partitionAt returns the partition window blocking m at its delivery
// time, or nil. The controller sits outside every zone, so only the
// cell-side endpoint decides; the window is half-open, so a deferred
// message delivers at the heal instant without re-deferring.
func (f *Fleet) partitionAt(m Message) *partWindow {
	for i := range f.parts {
		w := &f.parts[i]
		if m.At < w.start || m.At >= w.end {
			continue
		}
		if f.cellZone(m.Src) == w.zone || f.cellZone(m.Dst) == w.zone {
			return w
		}
	}
	return nil
}

// cellZone maps a shard id to its zone, or -1 for the controller and
// out-of-range ids.
func (f *Fleet) cellZone(id uint16) int {
	if int(id) >= len(f.zoneOf) {
		return -1
	}
	return f.zoneOf[id]
}

// handleControl processes one controller-bound message at the barrier.
// Requests drain in canonical (At, Src, Seq) order, so pool allocation —
// including two zones racing for the last overflow spare — is
// deterministic. Graceful degradation: zone-local grant first, overflow
// grant with the cross-zone penalty, deny last (the cell then offloads
// via ring handover).
func (f *Fleet) handleControl(m Message) {
	switch m.Kind {
	case KindSpareRequest:
		z := f.cellZone(m.Src)
		if z < 0 {
			return
		}
		if f.granted[m.Src] {
			// A backoff retry raced the in-flight (or consumed) grant;
			// granting again would leak pool capacity.
			f.dupReqs++
			return
		}
		switch {
		case f.zoneSpares[z] > 0:
			f.zoneSpares[z]--
			f.grantsLocal++
			f.zGrantL[z]++
			f.granted[m.Src] = true
			f.post(m.Src, KindSpareGrant, m.At+f.latency, m.A, 0)
		case f.overflow > 0:
			f.overflow--
			f.grantsCross++
			f.zGrantX[z]++
			f.granted[m.Src] = true
			f.post(m.Src, KindSpareGrant, m.At+f.latency+f.cfg.Topo.CrossZonePenalty, m.A, 1)
		default:
			f.denials++
			f.zDeny[z]++
			f.post(m.Src, KindSpareDeny, m.At+f.latency, m.A, 0)
		}
	case KindSpareRelease:
		z := f.cellZone(m.Src)
		if z < 0 {
			return
		}
		f.released++
		f.zoneSpares[z]++
		// An upgraded (or returned) server is fresh capacity: the source
		// may legitimately need a spare again later.
		delete(f.granted, m.Src)
	}
}

// Start boots every cell's deployment. Idempotent; Step calls it lazily,
// so existing Run callers see no change.
func (f *Fleet) Start() {
	if f.started {
		return
	}
	f.started = true
	for _, cs := range f.cells {
		cs.d.Start()
	}
}

// Step advances the fleet one lockstep barrier: every shard runs to the
// next barrier time (one internal/par task per runner group), then the
// coordinator exchanges messages. Workers never outlive the barrier, so
// virtual time is globally consistent — and the fleet snapshot-safe —
// exactly when Step returns. done reports the horizon was reached.
func (f *Fleet) Step() (done bool, err error) {
	f.Start()
	if f.now >= f.cfg.Horizon {
		return true, nil
	}
	t := f.now + f.cfg.Step
	if t > f.cfg.Horizon {
		t = f.cfg.Horizon
	}
	par.ForEach(len(f.groups), func(g int) {
		for _, ci := range f.groups[g] {
			f.cells[ci].eng.RunUntil(t)
		}
	})
	if err := f.exchange(t, t+f.cfg.Step); err != nil {
		return false, err
	}
	f.now = t
	return t == f.cfg.Horizon, nil
}

// Finish stops every cell, runs the end-of-schedule invariant checks, and
// finalizes the report. Idempotent: the first call's report is cached.
func (f *Fleet) Finish() *Report {
	if f.finished != nil {
		return f.finished
	}
	for _, cs := range f.cells {
		cs.d.Stop()
		cs.chk.Finish()
	}
	f.finished = f.report()
	return f.finished
}

// Now returns the last completed barrier time.
func (f *Fleet) Now() sim.Time { return f.now }

// Config returns the (normalized) fleet configuration.
func (f *Fleet) Config() Config { return f.cfg }

// ViolationsLive sums every cell's invariant-violation count so far,
// without finalizing the run — the resident server's watch signal.
func (f *Fleet) ViolationsLive() int {
	n := 0
	for _, cs := range f.cells {
		n += cs.chk.Total
	}
	return n
}

// FlightDumps returns each cell's flight-recorder dump (empty string for
// cells that never violated), indexed by cell.
func (f *Fleet) FlightDumps() []string {
	out := make([]string, len(f.cells))
	for i, cs := range f.cells {
		out[i] = cs.chk.Flight()
	}
	return out
}

// Faults returns a copy of the build-time fault plan (draw order), so a
// resident server can report it before the run finishes.
func (f *Fleet) Faults() []string {
	return append([]string(nil), f.faults...)
}

// MergedMetrics folds every cell's counter registry into a fresh one
// (shard-tagged like the report's exposition). Nil when Trace is off.
func (f *Fleet) MergedMetrics() *trace.Registry {
	if !f.cfg.Trace {
		return nil
	}
	reg := trace.NewRegistry()
	for _, cs := range f.cells {
		reg.MergeFrom(cs.rec.Metrics())
		reg.Counter(fmt.Sprintf("fleet.shard%04d.events", cs.idx)).Add(cs.rec.Total())
	}
	return reg
}

// Run executes the whole fleet to the horizon and returns its report.
func (f *Fleet) Run() (*Report, error) {
	for {
		done, err := f.Step()
		if err != nil {
			return nil, err
		}
		if done {
			return f.Finish(), nil
		}
	}
}

// report finalizes per-cell stats into the deterministic fleet report.
func (f *Fleet) report() *Report {
	r := &Report{
		Cfg:          f.cfg,
		Faults:       f.faults,
		Grants:       f.grantsLocal + f.grantsCross,
		GrantsLocal:  f.grantsLocal,
		GrantsCross:  f.grantsCross,
		Denials:      f.denials,
		DupReqs:      f.dupReqs,
		Released:     f.released,
		MigrateCmds:  f.migPosted,
		UpgradeCmds:  f.upgPosted,
		PartDeferred: f.partDefer,
		PartDropped:  f.partDrop,
		Exchanged:    f.exchanged,
	}
	for _, cs := range f.cells {
		st := cs.stat
		st.Dropped = cs.chk.DroppedTTIs(cs.d.Cfg.Cell)
		st.Active = cs.d.ActivePHYServerOf(cs.d.Cfg.Cell)
		st.Violations = cs.chk.Total
		r.Violations += cs.chk.Total
		for _, v := range cs.chk.Violations() {
			if len(r.violations) < 64 {
				r.violations = append(r.violations, fmt.Sprintf("cell %d: %s", cs.idx, v))
			}
		}
		r.Cells = append(r.Cells, st)
		if f.reg != nil {
			// Shard-tagged aggregation: per-cell counters fold into the
			// fleet registry (summed by name), and each shard's emission
			// volume lands under a per-shard tag.
			f.reg.MergeFrom(cs.rec.Metrics())
			f.reg.Counter(fmt.Sprintf("fleet.shard%04d.events", cs.idx)).Add(cs.rec.Total())
		}
	}
	if f.reg != nil {
		r.counters = f.reg.Exposition()
	}
	if f.cfg.zoned() {
		r.Zones = f.zoneStats(r)
	}
	r.Fingerprint = wire.Hash64([]byte(r.body()))
	return r
}

// zoneStats folds per-cell outcomes into per-zone aggregates. Zone
// availability is the served fraction of the zone's cell·TTI budget —
// dropped TTIs are the §8.2 failover-gap sums the checker measured.
func (f *Fleet) zoneStats(r *Report) []ZoneStat {
	slots := uint64(f.cfg.Horizon / f.cfg.Step)
	zs := make([]ZoneStat, f.zones)
	for z := range zs {
		zs[z] = ZoneStat{Zone: z, GrantsLocal: f.zGrantL[z], GrantsCross: f.zGrantX[z], Denied: f.zDeny[z]}
	}
	for _, st := range r.Cells {
		z := &zs[st.Zone]
		z.Cells++
		z.Dropped += st.Dropped
		z.Retries += st.Retries
		if st.Killed {
			z.Killed++
		}
		if st.SpareOK {
			z.Respared++
		}
	}
	for z := range zs {
		total := uint64(zs[z].Cells) * slots
		if total > 0 {
			zs[z].Availability = 100 * (1 - float64(zs[z].Dropped)/float64(total))
		}
	}
	return zs
}

// CellReports renders each cell's outcome as a chaos.Report so fleet
// soaks plug into chaos.SoakReports and report per-cell fingerprints.
func (f *Fleet) CellReports(rep *Report) []*chaos.Report {
	out := make([]*chaos.Report, 0, len(f.cells))
	for i, cs := range f.cells {
		// Zone-tagged profiles give SoakReports a per-zone breakdown when
		// the fleet has a real topology; flat fleets keep the PR-5 names.
		profile := fmt.Sprintf("fleet-cell%d", i)
		if f.zones > 1 {
			profile = fmt.Sprintf("fleet-z%d-cell%d", f.zoneOf[i], i)
		}
		cr := &chaos.Report{
			Seed:            f.cfg.Seed,
			Profile:         profile,
			Horizon:         f.cfg.Horizon,
			Violations:      cs.chk.Violations(),
			TotalViolations: cs.chk.Total,
			Dropped:         []chaos.CellDrop{{Cell: uint16(i), Dropped: rep.Cells[i].Dropped}},
		}
		for j := 0; j < rep.Cells[i].UEs; j++ {
			ul, dl := cs.chk.Delivered(uint16(j + 1))
			cr.Flows = append(cr.Flows, chaos.FlowStat{UE: uint16(j + 1), UL: ul, DL: dl})
		}
		cr.Finalize()
		out = append(out, cr)
	}
	return out
}

// Run builds and executes a fleet in one call.
func Run(cfg Config) (*Report, error) {
	f, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return f.Run()
}
