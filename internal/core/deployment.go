// Package core assembles complete simulated vRAN deployments and is the
// home of Slingshot's end-to-end orchestration: it wires the switch,
// PHYs, Orion middleboxes, L2, RUs and UEs together; arms the in-switch
// failure detector; and exposes the failover / planned-migration / live-
// upgrade operations the experiments exercise. It also builds the paper's
// no-Slingshot baseline: a hot-backup full vRAN stack that recovers only
// through fronthaul rerouting plus full UE reattach (§8.1).
package core

import (
	"fmt"
	"slices"

	"slingshot/internal/l2"
	"slingshot/internal/netmodel"
	"slingshot/internal/orion"
	"slingshot/internal/phy"
	"slingshot/internal/ru"
	"slingshot/internal/sim"
	"slingshot/internal/switchsim"
	"slingshot/internal/trace"
	"slingshot/internal/ue"
)

// UESpec describes one UE in the deployment.
type UESpec struct {
	ID   uint16
	Name string
	// MeanSNRdB sets the UE's average channel quality.
	MeanSNRdB float64
	// FadeStd/FadeCorr override the default fading model when non-zero.
	FadeStd  float64
	FadeCorr float64
}

// CellSpec describes one additional cell in a multi-cell deployment. The
// paper's design expects exactly this shape: each PHY process serves
// multiple RUs, and the primary/secondary roles for different cells are
// co-located within the same processes (§8) — no dedicated standby
// servers.
type CellSpec struct {
	Cell      uint16
	Seed      uint64
	Primary   uint8
	Secondary uint8
	UEs       []UESpec
}

// Config describes a deployment.
type Config struct {
	Seed uint64

	// Cell is the single cell id used by the standard experiments
	// (multi-cell deployments construct additional cells via AddCell).
	Cell uint16
	// CellSeed derives the cell's scrambling/pilot sequences.
	CellSeed uint64
	// MantissaBits is the fronthaul BFP width.
	MantissaBits uint8

	// PrimaryServer and SecondaryServer host the cell's PHYs.
	PrimaryServer   uint8
	SecondaryServer uint8
	// SpareServer, if non-zero, hosts a replacement secondary after a
	// failover.
	SpareServer uint8
	// L2Server hosts the L2 and the L2-side Orion.
	L2Server uint8

	// PHYIters overrides the FEC iteration budget per PHY server (the
	// live-upgrade experiment gives the secondary a larger budget).
	PHYIters map[uint8]int

	UEs []UESpec
	// ExtraCells adds more cells beyond the primary one, each with its
	// own RU, UEs and primary/secondary placement (Slingshot only).
	ExtraCells []CellSpec

	// LinkBandwidth is the server/switch link rate (100 GbE default).
	LinkBandwidth float64
	// LinkLatency is the one-way link latency.
	LinkLatency sim.Time

	// L2Tweak adjusts the L2 configuration before construction.
	L2Tweak func(*l2.Config)
	// PHYTweak adjusts each PHY's configuration before construction.
	PHYTweak func(*phy.Config)

	// Trace, when non-nil, is the deployment's observability recorder: the
	// builder binds it to the engine and threads it through every PHY, HARQ
	// pool, L2 and RLC receiver. Nil disables tracing at zero cost.
	Trace *trace.Recorder
}

// DefaultConfig returns the three-server testbed configuration the paper
// evaluates (two PHY servers plus an L2 server, §8).
func DefaultConfig() Config {
	return Config{
		Seed:            1,
		Cell:            0,
		CellSeed:        0x517E,
		MantissaBits:    9,
		PrimaryServer:   1,
		SecondaryServer: 2,
		L2Server:        10,
		LinkBandwidth:   100e9,
		LinkLatency:     2 * sim.Microsecond,
		UEs: []UESpec{
			{ID: 1, Name: "OnePlus 10", MeanSNRdB: 24},
			{ID: 2, Name: "Samsung A52", MeanSNRdB: 20},
			{ID: 3, Name: "Raspberry Pi", MeanSNRdB: 28},
		},
	}
}

// Deployment is a fully wired simulated vRAN.
type Deployment struct {
	Cfg    Config
	Engine *sim.Engine
	RNG    *sim.RNG

	Switch  *switchsim.Switch
	PHYs    map[uint8]*phy.PHY
	Orions  map[uint8]*orion.Orion // PHY-side, by server
	L2      *l2.L2
	L2Orion *orion.Orion
	// RU is the primary cell's radio unit; RUs holds every cell's.
	RU  *ru.RU
	RUs map[uint16]*ru.RU
	UEs map[uint16]*ue.UE
	// Links records each endpoint's uplink (endpoint→switch) cable by the
	// endpoint's address; the switch-side egress cable is reachable via
	// Switch.Port. Fault-injection harnesses perturb both.
	Links map[netmodel.Addr]*netmodel.Link
	// cellSeeds remembers each cell's scrambling seed for Start.
	cellSeeds map[uint16]uint64

	// Slingshot is false for the baseline deployment.
	Slingshot bool

	// Baseline-only: the backup stack and its controller.
	backupL2    *l2.L2
	activeL2    *l2.L2
	baselineCtl *baselineController

	// upFn is the registered uplink sink, re-wired across L2 upgrades.
	upFn func(cell, ue uint16, pkt []byte)
}

// endpointLink wires an endpoint into the switch: the returned link sends
// endpoint→switch; the switch's egress link toward the endpoint is also
// registered.
func (d *Deployment) endpointLink(addr netmodel.Addr, rx netmodel.Receiver) *netmodel.Link {
	toSwitch := netmodel.NewLink(d.Engine, d.Switch, d.Cfg.LinkBandwidth, d.Cfg.LinkLatency)
	fromSwitch := netmodel.NewLink(d.Engine, rx, d.Cfg.LinkBandwidth, d.Cfg.LinkLatency)
	d.Switch.Connect(addr, fromSwitch)
	d.Links[addr] = toSwitch
	return toSwitch
}

// NewSlingshot builds a Slingshot deployment: decoupled L2 and PHY with
// Orion middleboxes, a hot-standby secondary PHY, and the in-switch
// fronthaul middlebox + failure detector.
func NewSlingshot(cfg Config) *Deployment {
	d := newCommon(cfg)
	d.Slingshot = true

	// PHY servers: PHY + PHY-side Orion each.
	for _, server := range []uint8{cfg.PrimaryServer, cfg.SecondaryServer, cfg.SpareServer} {
		if server == 0 {
			continue
		}
		d.addPHYServer(server)
	}

	// L2 server: L2 + L2-side Orion.
	l2cfg := l2.DefaultConfig(cfg.L2Server)
	if cfg.L2Tweak != nil {
		cfg.L2Tweak(&l2cfg)
	}
	d.L2 = l2.New(d.Engine, l2cfg)
	d.L2.Recorder = cfg.Trace
	d.activeL2 = d.L2
	d.L2Orion = orion.New(d.Engine, orion.DefaultConfig(cfg.L2Server, orion.RoleL2Side))
	if rec := cfg.Trace; rec != nil {
		// Record failover / planned-migration transitions. Installed at
		// construction so later observers (chaos checker, experiment hooks)
		// chain on top of it.
		d.L2Orion.OnMigration = func(ev orion.MigrationEvent) {
			kind := trace.KindMigration
			if ev.Failover {
				kind = trace.KindFailover
			}
			rec.Emit(kind, cfg.L2Server, ev.Cell, 0, uint64(ev.ToServer), ev.AtSlot)
		}
	}
	d.L2Orion.AddCell(cfg.Cell, cfg.PrimaryServer, cfg.SecondaryServer)
	link := d.endpointLink(d.L2Orion.Addr, d.L2Orion)
	d.L2Orion.SendFrame = link.Send
	d.L2.SendFAPI = d.L2Orion.FromL2
	d.L2Orion.ToL2 = d.L2.HandleFAPI

	d.wireRadio(d.L2)

	// Switch dataplane state.
	d.Switch.InstallRU(uint8(cfg.Cell), netmodel.RUAddr(cfg.Cell))
	d.Switch.SetMapping(uint8(cfg.Cell), cfg.PrimaryServer)
	d.Switch.ArmDetector(cfg.PrimaryServer, d.L2Orion.Addr)
	d.Switch.ArmDetector(cfg.SecondaryServer, d.L2Orion.Addr)

	// Additional cells: primaries and secondaries co-locate within the
	// existing PHY processes (each process serves many RUs, §2.2/§8).
	for _, spec := range cfg.ExtraCells {
		for _, server := range []uint8{spec.Primary, spec.Secondary} {
			if _, ok := d.PHYs[server]; !ok && server != 0 {
				d.addPHYServer(server)
			}
		}
		d.L2Orion.AddCell(spec.Cell, spec.Primary, spec.Secondary)
		d.wireCell(spec.Cell, spec.Seed, spec.UEs)
		d.Switch.InstallRU(uint8(spec.Cell), netmodel.RUAddr(spec.Cell))
		d.Switch.SetMapping(uint8(spec.Cell), spec.Primary)
		d.Switch.ArmDetector(spec.Primary, d.L2Orion.Addr)
		d.Switch.ArmDetector(spec.Secondary, d.L2Orion.Addr)
	}

	return d
}

func newCommon(cfg Config) *Deployment {
	if cfg.LinkBandwidth == 0 {
		cfg.LinkBandwidth = 100e9
	}
	if cfg.MantissaBits == 0 {
		cfg.MantissaBits = 9
	}
	e := sim.NewEngine()
	rng := sim.NewRNG(cfg.Seed)
	d := &Deployment{
		Cfg:       cfg,
		Engine:    e,
		RNG:       rng,
		Switch:    switchsim.New(e, rng.Fork(0xA0)),
		PHYs:      make(map[uint8]*phy.PHY),
		Orions:    make(map[uint8]*orion.Orion),
		RUs:       make(map[uint16]*ru.RU),
		UEs:       make(map[uint16]*ue.UE),
		Links:     make(map[netmodel.Addr]*netmodel.Link),
		cellSeeds: make(map[uint16]uint64),
	}
	cfg.Trace.Bind(e)
	return d
}

// addPHYServer constructs a PHY and its PHY-side Orion on a server.
func (d *Deployment) addPHYServer(server uint8) {
	pcfg := phy.DefaultConfig(server)
	if iters, ok := d.Cfg.PHYIters[server]; ok {
		pcfg.FECIters = iters
	}
	if d.Cfg.PHYTweak != nil {
		d.Cfg.PHYTweak(&pcfg)
	}
	p := phy.New(d.Engine, pcfg, d.RNG.Fork(uint64(server)))
	p.Trace = d.Cfg.Trace
	phyLink := d.endpointLink(p.Addr, p)
	p.SendFronthaul = phyLink.Send

	o := orion.New(d.Engine, orion.DefaultConfig(server, orion.RolePHYSide))
	o.SetL2Server(d.Cfg.L2Server)
	orionLink := d.endpointLink(o.Addr, o)
	o.SendFrame = orionLink.Send
	o.ToPHY = p.HandleFAPI
	p.SendFAPI = o.FromPHY
	// Messages arriving over the Orion path came from fapi.Decode: the PHY
	// owns them outright and may recycle payload buffers at its slot GC.
	p.OwnsFAPIData = true

	d.PHYs[server] = p
	d.Orions[server] = o
	d.Switch.InstallPHY(server, p.Addr)
}

// wireRadio builds the primary cell's RU and UEs.
func (d *Deployment) wireRadio(attachL2 *l2.L2) {
	d.RU = d.wireCell(d.Cfg.Cell, d.Cfg.CellSeed, d.Cfg.UEs)
}

// wireCell builds one cell's RU and UEs and connects them for attach.
func (d *Deployment) wireCell(cellID uint16, seed uint64, ues []UESpec) *ru.RU {
	rcfg := ru.DefaultConfig(cellID)
	rcfg.MantissaBits = int(d.Cfg.MantissaBits)
	r := ru.New(d.Engine, rcfg)
	ruLink := d.endpointLink(r.Addr, r)
	r.SendFronthaul = ruLink.Send
	d.RUs[cellID] = r
	d.cellSeeds[cellID] = seed

	for _, spec := range ues {
		ucfg := ue.DefaultConfig(spec.ID, cellID, spec.Name, spec.MeanSNRdB)
		if spec.FadeStd != 0 {
			ucfg.FadeStd = spec.FadeStd
		}
		if spec.FadeCorr != 0 {
			ucfg.FadeCorr = spec.FadeCorr
		}
		u := ue.New(d.Engine, ucfg, d.RNG.Fork(0x0E00+uint64(spec.ID)))
		u.SetCellParams(seed, int(d.Cfg.MantissaBits))
		u.TryAttach = func(x *ue.UE) bool {
			if !r.Alive(20 * sim.Millisecond) {
				return false
			}
			return d.activeL2.AttachUE(cellID, x.Cfg.ID)
		}
		r.AddUE(u)
		d.UEs[spec.ID] = u
	}
	return r
}

// Start brings the deployment up: configures every cell, starts every
// slot clock, and attaches the UEs.
func (d *Deployment) Start() {
	// Bring components up in sorted id order: map order would randomize
	// the event-queue tie-break sequence and break seed determinism.
	for _, server := range d.phyOrder() {
		d.PHYs[server].Start()
	}
	for _, cellID := range d.cellOrder() {
		d.L2.AddCell(cellID, d.cellSeeds[cellID], d.Cfg.MantissaBits)
		if d.backupL2 != nil {
			d.backupL2.AddCell(cellID, d.cellSeeds[cellID], d.Cfg.MantissaBits)
		}
	}
	d.L2.Start()
	if d.backupL2 != nil {
		d.backupL2.Start()
	}
	for _, cellID := range d.cellOrder() {
		d.RUs[cellID].Start()
	}
	for _, id := range d.ueOrder() {
		u := d.UEs[id]
		u.Attach()
		d.activeL2.AttachUE(u.Cfg.Cell, u.Cfg.ID)
	}
}

func (d *Deployment) phyOrder() []uint8 {
	out := make([]uint8, 0, len(d.PHYs))
	for s := range d.PHYs {
		out = append(out, s)
	}
	slices.Sort(out)
	return out
}

func (d *Deployment) cellOrder() []uint16 {
	out := make([]uint16, 0, len(d.cellSeeds))
	for c := range d.cellSeeds {
		out = append(out, c)
	}
	slices.Sort(out)
	return out
}

func (d *Deployment) ueOrder() []uint16 {
	out := make([]uint16, 0, len(d.UEs))
	for id := range d.UEs {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// Run advances the simulation to the given time.
func (d *Deployment) Run(until sim.Time) {
	d.Engine.RunUntil(until)
}

// ActivePHYServer returns the server whose PHY currently serves the
// primary cell.
func (d *Deployment) ActivePHYServer() uint8 {
	return d.ActivePHYServerOf(d.Cfg.Cell)
}

// ActivePHYServerOf returns the server currently serving a cell.
func (d *Deployment) ActivePHYServerOf(cell uint16) uint8 {
	if d.Slingshot {
		return d.L2Orion.ActiveServer(cell)
	}
	return d.Switch.Mapping(uint8(cell))
}

// ActiveL2 returns the L2 currently serving the cell (differs from L2
// only in the baseline after failover).
func (d *Deployment) ActiveL2() *l2.L2 { return d.activeL2 }

// KillActivePHY crashes the PHY serving the primary cell (the
// experiments' SIGKILL). The in-switch detector notices the heartbeat gap
// and notifies Orion (or the baseline controller). Other cells whose
// primary ran in the same process fail over too, as in a real process
// crash.
func (d *Deployment) KillActivePHY() {
	d.PHYs[d.ActivePHYServer()].Kill()
}

// KillServer crashes the PHY process on a specific server.
func (d *Deployment) KillServer(server uint8) {
	if p, ok := d.PHYs[server]; ok {
		p.Kill()
	}
}

// PlannedMigration initiates a zero-downtime migration of the primary
// cell to its standby and returns the boundary slot. Slingshot only.
func (d *Deployment) PlannedMigration() (uint64, error) {
	return d.PlannedMigrationOf(d.Cfg.Cell)
}

// PlannedMigrationOf migrates one cell's PHY processing to its standby.
func (d *Deployment) PlannedMigrationOf(cell uint16) (uint64, error) {
	if !d.Slingshot {
		return 0, fmt.Errorf("core: planned migration requires Slingshot")
	}
	boundary := d.L2Orion.Migrate(cell)
	if boundary == 0 {
		return 0, fmt.Errorf("core: migration refused (standby unavailable)")
	}
	return boundary, nil
}

// ProvisionSpare points a cell's standby at the spare server after a
// failover, re-initializing it from Orion's stored CONFIG.request (§6.3).
func (d *Deployment) ProvisionSpare(cell uint16) error {
	if !d.Slingshot {
		return fmt.Errorf("core: spares require the Slingshot deployment")
	}
	if d.Cfg.SpareServer == 0 {
		return fmt.Errorf("core: no spare server configured")
	}
	d.L2Orion.ReplaceStandby(cell, d.Cfg.SpareServer)
	d.Switch.ArmDetector(d.Cfg.SpareServer, d.L2Orion.Addr)
	return nil
}

// SendDownlink delivers a packet from the application server towards a UE
// through the active L2 (the UE's serving cell is looked up).
func (d *Deployment) SendDownlink(ueID uint16, pkt []byte) bool {
	u, ok := d.UEs[ueID]
	if !ok {
		return false
	}
	return d.activeL2.SendDownlink(u.Cfg.Cell, ueID, pkt)
}

// OnUplink registers the application-server-side uplink packet sink on
// every L2 in the deployment.
func (d *Deployment) OnUplink(fn func(ue uint16, pkt []byte)) {
	wrap := func(cell, ueID uint16, pkt []byte) { fn(ueID, pkt) }
	d.upFn = wrap
	d.L2.OnUplinkPacket = wrap
	if d.backupL2 != nil {
		d.backupL2.OnUplinkPacket = wrap
	}
}

// UpgradeL2 replaces the running L2 process with a fresh instance (an L2
// software upgrade), the paper's §10 extension. With preserveState, the
// old L2's hard state — RLC sequence spaces, bearer queues, HARQ
// bookkeeping — is checkpointed and restored into the new instance, so
// bearers survive; without it, the new L2 starts cold and every UE must
// reattach, as in the failover baseline. Slingshot deployments only.
func (d *Deployment) UpgradeL2(preserveState bool) (*l2.L2, error) {
	if !d.Slingshot {
		return nil, fmt.Errorf("core: L2 upgrade requires the Slingshot deployment")
	}
	old := d.L2
	var state *l2.State
	if preserveState {
		state = old.ExportState()
	}
	old.Stop()

	l2cfg := l2.DefaultConfig(d.Cfg.L2Server)
	if d.Cfg.L2Tweak != nil {
		d.Cfg.L2Tweak(&l2cfg)
	}
	fresh := l2.New(d.Engine, l2cfg)
	fresh.Recorder = d.Cfg.Trace
	fresh.SendFAPI = d.L2Orion.FromL2
	fresh.OnUplinkPacket = d.upFn
	d.L2Orion.ToL2 = fresh.HandleFAPI
	if preserveState {
		fresh.ImportState(state)
	} else {
		// Cold start: the new build re-onboards the cell but knows no
		// UEs (their RRC contexts lived in the old process).
		fresh.AddCell(d.Cfg.Cell, d.Cfg.CellSeed, d.Cfg.MantissaBits)
	}
	d.L2 = fresh
	d.activeL2 = fresh
	fresh.Start()
	return fresh, nil
}

// Stop tears down periodic activity (switch pktgen, clocks) so benchmarks
// can drain the event queue.
func (d *Deployment) Stop() {
	d.Switch.Stop()
	d.L2.Stop()
	if d.backupL2 != nil {
		d.backupL2.Stop()
	}
	for _, cellID := range d.cellOrder() {
		d.RUs[cellID].Stop()
	}
	for _, id := range d.ueOrder() {
		d.UEs[id].Stop()
	}
	for _, server := range d.phyOrder() {
		if p := d.PHYs[server]; !p.Crashed() {
			p.Kill()
		}
	}
}
