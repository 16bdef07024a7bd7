// Package orion implements Orion, Slingshot's software middlebox between
// the L2 and the PHY (§6 of the paper). Orion interposes on the FAPI
// narrow waist: it transparently decouples an SHM-coupled L2 and PHY over
// the datacenter network, keeps a hot-standby secondary PHY alive with
// null FAPI requests, and executes PHY migration — switching which PHY
// receives real work and commanding the in-switch fronthaul middlebox to
// remap the RU at the same TTI boundary.
//
// An Orion process is either "L2-side" (paired with an L2 over SHM) or
// "PHY-side" (paired with a PHY). The inter-Orion transport is a lean
// stateless UDP-style exchange of encoded FAPI messages (§6.1): no
// connection state, no retransmission; a lost message for a slot is
// replaced with a null request at the receiver.
package orion

import (
	"slices"

	"slingshot/internal/fapi"
	"slingshot/internal/fronthaul"
	"slingshot/internal/mem"
	"slingshot/internal/netmodel"
	"slingshot/internal/sim"
	"slingshot/internal/switchsim"
)

// Role distinguishes the two Orion pairings.
type Role uint8

// Orion roles.
const (
	RoleL2Side Role = iota
	RolePHYSide
)

// Config parameterizes an Orion process.
type Config struct {
	// ServerID is the server this Orion runs on; its address is
	// netmodel.OrionAddr(ServerID).
	ServerID uint8
	Role     Role
	// BaseProc is the fixed per-message processing cost (parse, FAPI
	// transform, enqueue) of the busy-polling DPDK loop.
	BaseProc sim.Time
	// PerKB is the additional copy cost per kilobyte of message body.
	PerKB sim.Time
	// MigrationLead is how many slots in the future migrations are
	// scheduled when triggered (must outrun the in-flight command).
	MigrationLead uint64
	// JitterProb/JitterMax model rare scheduling hiccups of the busy-poll
	// core (Orion is a plain userspace process, §8.7): with probability
	// JitterProb a message takes up to JitterMax extra service time.
	JitterProb float64
	JitterMax  sim.Time
	// DuplicateToStandby sends the standby real work instead of null
	// requests — the naïve hot-standby design §6.2 argues against.
	// Exists for the ablation experiment; responses from the standby are
	// still filtered, so correctness is unaffected, only cost.
	DuplicateToStandby bool
}

// DefaultConfig returns an Orion configuration matching the paper's
// unoptimized implementation (§8.7).
func DefaultConfig(server uint8, role Role) Config {
	return Config{
		ServerID:      server,
		Role:          role,
		BaseProc:      3 * sim.Microsecond,
		PerKB:         60 * sim.Nanosecond,
		MigrationLead: 2,
		JitterProb:    0.0005,
		JitterMax:     100 * sim.Microsecond,
	}
}

// cellState is the L2-side Orion's per-cell migration state.
type cellState struct {
	id        uint16
	primary   uint8 // server id running the primary PHY
	secondary uint8
	// activePrimary: real FAPI goes to primary; else to secondary.
	activePrimary bool
	// switchFromSlot: messages for slots >= switchFromSlot route to the
	// new active after a migration. The previously-active PHY's
	// in-pipeline responses for earlier slots are still accepted (Fig 7).
	switchFromSlot uint64
	storedInit     *fapi.ConfigRequest
	started        bool
	migrations     int
}

// MigrationEvent records one completed migration initiation for metrics.
type MigrationEvent struct {
	Cell     uint16
	At       sim.Time
	AtSlot   uint64
	ToServer uint8
	Failover bool
}

// Stats counts Orion activity.
type Stats struct {
	FromL2      uint64
	FromPHY     uint64
	NetIn       uint64
	NetOut      uint64
	NullsSent   uint64
	RespDropped uint64 // standby responses filtered (§6.2, Fig 6)
	GapFilled   uint64 // null configs injected for lost messages
	Migrations  uint64
	Failovers   uint64
	NotifyRecv  uint64
	BytesNetOut uint64
}

// Orion is one middlebox process.
type Orion struct {
	Cfg    Config
	Engine *sim.Engine
	Addr   netmodel.Addr
	Stats  Stats

	// SendFrame transmits towards the switch.
	SendFrame func(*netmodel.Frame)

	// SHM peers. L2-side: ToL2 delivers PHY responses to the local L2.
	// PHY-side: ToPHY delivers L2 requests to the local PHY.
	ToL2  func(fapi.Message)
	ToPHY func(fapi.Message)

	// OnMigration observes migrations (L2-side only).
	OnMigration func(MigrationEvent)

	// L2-side state.
	cells map[uint16]*cellState
	// l2Server is where the L2-side Orion lives, so PHY-side Orions know
	// where to send responses; set via SetL2Server on PHY-side instances.
	l2Server uint8
	// failedServers remembers servers the switch reported dead, so a
	// planned migration never targets a known-failed standby.
	failedServers map[uint8]bool

	// Processing queue model: messages are handled sequentially by the
	// busy-polling core.
	busyUntil sim.Time
	rng       *sim.RNG

	// CurrentSlot tracks the slot clock implicitly from traffic.
	lastSeenSlot uint64
	// PHY-side gap-fill state: last slot for which configs were delivered.
	lastDeliveredUL map[uint16]uint64
	lastDeliveredDL map[uint16]uint64

	// Long-lived AfterArg callbacks: the hot per-message paths ride the
	// engine's recycled events with these closures, so deferring a
	// message costs no allocation.
	routeFromL2Fn func(any)
	sendToL2Fn    func(any)
	netInFn       func(any)

	MigrationLog []MigrationEvent
}

// netIn carries one decoded inter-Orion message through the processing-
// queue delay; pooled because every networked FAPI message passes here.
type netIn struct {
	m   fapi.Message
	src netmodel.Addr
}

var netInPool = mem.NewPool[netIn](func(n *netIn) { *n = netIn{} })

// New creates an Orion process.
func New(e *sim.Engine, cfg Config) *Orion {
	if cfg.BaseProc == 0 {
		cfg.BaseProc = 3 * sim.Microsecond
	}
	if cfg.MigrationLead == 0 {
		cfg.MigrationLead = 2
	}
	o := &Orion{
		Cfg:             cfg,
		Engine:          e,
		Addr:            netmodel.OrionAddr(cfg.ServerID),
		cells:           make(map[uint16]*cellState),
		lastDeliveredUL: make(map[uint16]uint64),
		lastDeliveredDL: make(map[uint16]uint64),
		failedServers:   make(map[uint8]bool),
		rng:             sim.NewRNG(0x0910 + uint64(cfg.ServerID)),
	}
	o.routeFromL2Fn = func(a any) { o.routeFromL2(a.(fapi.Message)) }
	o.sendToL2Fn = func(a any) {
		m := a.(fapi.Message)
		o.netSend(o.l2Server, m)
		// FromPHY messages transfer ownership: the PHY builds them fresh
		// per slot and never touches them again, so once encoded they are
		// recycled wholesale.
		fapi.ReleaseDeep(m)
	}
	o.netInFn = func(a any) {
		n := a.(*netIn)
		m, src := n.m, n.src
		netInPool.Put(n)
		o.routeFromNet(m, src)
	}
	return o
}

// SetL2Server tells a PHY-side Orion which server hosts the L2-side Orion.
func (o *Orion) SetL2Server(server uint8) { o.l2Server = server }

// AddCell registers a cell with its primary and secondary PHY servers
// (cluster configuration from Orion's management thread, §6.3).
func (o *Orion) AddCell(cell uint16, primaryServer, secondaryServer uint8) {
	o.cells[cell] = &cellState{
		id: cell, primary: primaryServer, secondary: secondaryServer,
		activePrimary: true,
	}
}

// ActiveServer returns the server currently receiving real FAPI for cell.
func (o *Orion) ActiveServer(cell uint16) uint8 {
	c := o.cells[cell]
	if c == nil {
		return 0
	}
	if c.activePrimary {
		return c.primary
	}
	return c.secondary
}

// StandbyServer returns the hot-standby server for cell.
func (o *Orion) StandbyServer(cell uint16) uint8 {
	c := o.cells[cell]
	if c == nil {
		return 0
	}
	if c.activePrimary {
		return c.secondary
	}
	return c.primary
}

// procDelay models the sequential busy-polling core: queueing plus
// per-message service time.
func (o *Orion) procDelay(bytes int) sim.Time {
	now := o.Engine.Now()
	service := o.Cfg.BaseProc + o.Cfg.PerKB*sim.Time(bytes/1024)
	if o.Cfg.JitterProb > 0 && o.rng != nil && o.rng.Bool(o.Cfg.JitterProb) {
		service += sim.Time(o.rng.Float64() * float64(o.Cfg.JitterMax))
	}
	start := now
	if o.busyUntil > start {
		start = o.busyUntil
	}
	o.busyUntil = start + service
	return o.busyUntil - now
}

// after schedules fn after the processing-queue delay for a message of the
// given size.
func (o *Orion) after(bytes int, name string, fn func()) {
	o.Engine.After(o.procDelay(bytes), name, fn)
}

// netSend ships an encoded FAPI message to another Orion. The wire buffer
// is leased; the receiving Orion recycles it after decoding (the switch
// forwards each FAPI frame to exactly one egress, so the payload has one
// consumer).
func (o *Orion) netSend(dstServer uint8, m fapi.Message) {
	if o.SendFrame == nil {
		return
	}
	payload := fapi.EncodePooled(m)
	o.Stats.NetOut++
	o.Stats.BytesNetOut += uint64(len(payload))
	f := netmodel.GetFrame()
	f.Src = o.Addr
	f.Dst = netmodel.OrionAddr(dstServer)
	f.Type = netmodel.EtherTypeFAPI
	f.Payload = payload
	o.SendFrame(f)
}

// FromL2 is the SHM entry point: the co-located L2 "connects to the PHY"
// but actually talks to us (§6.1). The message's wire size prices the
// processing delay without encoding it (encoding happens once, in
// netSend).
func (o *Orion) FromL2(m fapi.Message) {
	o.Stats.FromL2++
	size := fapi.EncodedSize(m)
	o.Engine.AfterArg(o.procDelay(size), "orion.from-l2", o.routeFromL2Fn, m)
}

func (o *Orion) routeFromL2(m fapi.Message) {
	c := o.cells[m.Cell()]
	if c == nil {
		return
	}
	if s := m.AbsSlot(); s > o.lastSeenSlot {
		o.lastSeenSlot = s
	}
	switch msg := m.(type) {
	case *fapi.ConfigRequest:
		// Intercept and duplicate: provision both the primary and the
		// secondary PHY (§6.3).
		stored := *msg
		c.storedInit = &stored
		o.netSend(c.primary, msg)
		o.netSend(c.secondary, msg)
	case *fapi.StartRequest:
		c.started = true
		o.netSend(c.primary, msg)
		o.netSend(c.secondary, msg)
	case *fapi.StopRequest:
		c.started = false
		o.netSend(c.primary, msg)
		o.netSend(c.secondary, msg)
	case *fapi.ULConfig:
		o.netSend(o.serverForSlot(c, msg.Slot), msg)
		if o.Cfg.DuplicateToStandby {
			o.netSend(o.standbyForSlot(c, msg.Slot), msg)
		} else {
			o.sendNull(c, msg.Slot, true)
		}
	case *fapi.DLConfig:
		o.netSend(o.serverForSlot(c, msg.Slot), msg)
		if o.Cfg.DuplicateToStandby {
			o.netSend(o.standbyForSlot(c, msg.Slot), msg)
		} else {
			o.sendNull(c, msg.Slot, false)
		}
	case *fapi.TxData:
		// Payload goes only to the active PHY; the standby does no work
		// (unless the duplicate-work ablation is enabled).
		o.netSend(o.serverForSlot(c, msg.Slot), msg)
		if o.Cfg.DuplicateToStandby {
			o.netSend(o.standbyForSlot(c, msg.Slot), msg)
		}
	default:
		o.netSend(o.activeServer(c), m)
	}
	// The message is fully encoded onto the wire now. Recycle the struct
	// and its element slices — but not TBPayload.Data, which may alias
	// storage the L2 still owns (the HARQ retransmission copy).
	fapi.ReleaseShallow(m)
}

// serverForSlot routes a slot-bearing request: slots before the migration
// boundary still belong to the previously active PHY.
func (o *Orion) serverForSlot(c *cellState, slot uint64) uint8 {
	if slot >= c.switchFromSlot {
		return o.activeServer(c)
	}
	return o.standbyServer(c)
}

func (o *Orion) activeServer(c *cellState) uint8 {
	if c.activePrimary {
		return c.primary
	}
	return c.secondary
}

// standbyForSlot mirrors serverForSlot for the non-serving PHY.
func (o *Orion) standbyForSlot(c *cellState, slot uint64) uint8 {
	if slot >= c.switchFromSlot {
		return o.standbyServer(c)
	}
	return o.activeServer(c)
}

func (o *Orion) standbyServer(c *cellState) uint8 {
	if c.activePrimary {
		return c.secondary
	}
	return c.primary
}

// sendNull ships the standby's null request for the slot (§6.2).
func (o *Orion) sendNull(c *cellState, slot uint64, uplink bool) {
	standby := c.secondary
	if !c.activePrimary {
		standby = c.primary
	}
	if slot < c.switchFromSlot {
		// Mid-swap: the "standby" for old slots is the new active; don't
		// confuse it with nulls for slots it will process for real.
		return
	}
	var m fapi.Message
	if uplink {
		m = fapi.GetULConfig(c.id, slot)
	} else {
		m = fapi.GetDLConfig(c.id, slot)
	}
	o.Stats.NullsSent++
	o.netSend(standby, m)
	fapi.ReleaseShallow(m)
}

// FromPHY is the SHM entry point on the PHY side: the co-located PHY's
// FAPI output. The message is encoded once (in netSend) and then
// recycled — the PHY hands over ownership.
func (o *Orion) FromPHY(m fapi.Message) {
	o.Stats.FromPHY++
	size := fapi.EncodedSize(m)
	o.Engine.AfterArg(o.procDelay(size), "orion.from-phy", o.sendToL2Fn, m)
}

// HandleFrame receives network traffic: inter-Orion FAPI and switch
// control notifications. Orion is the frame's terminal consumer — decode
// copies everything out, so the frame (and, for control traffic, its
// payload; the FAPI path recycles its own) is released on return.
func (o *Orion) HandleFrame(f *netmodel.Frame) {
	o.handleFrame(f)
	netmodel.ReleaseFrame(f)
}

func (o *Orion) handleFrame(f *netmodel.Frame) {
	switch f.Type {
	case netmodel.EtherTypeFAPI:
		m, err := fapi.Decode(f.Payload)
		size := len(f.Payload)
		// Decode copied everything out of the wire bytes; the switch
		// forwarded this frame to us alone, so the payload is ours to
		// recycle.
		mem.PutBytes(f.Payload)
		f.Payload = nil
		if err != nil {
			return
		}
		o.Stats.NetIn++
		n := netInPool.Get()
		n.m, n.src = m, f.Src
		o.Engine.AfterArg(o.procDelay(size), "orion.net-in", o.netInFn, n)
	case netmodel.EtherTypeControl:
		cmd, err := switchsim.DecodeCommand(f.Payload)
		if err != nil || cmd.Type != switchsim.CmdFailureNotify {
			return
		}
		o.Stats.NotifyRecv++
		o.after(64, "orion.notify", func() { o.handleFailure(cmd.PHY) })
	}
}

func (o *Orion) routeFromNet(m fapi.Message, src netmodel.Addr) {
	if o.Cfg.Role == RolePHYSide {
		o.deliverToPHY(m)
		return
	}
	o.deliverToL2(m, src)
}

// deliverToPHY hands an L2 request to the co-located PHY, gap-filling
// missing slots with nulls so a lost message cannot starve the PHY (§6.1).
func (o *Orion) deliverToPHY(m fapi.Message) {
	if o.ToPHY == nil {
		return
	}
	switch msg := m.(type) {
	case *fapi.ULConfig:
		o.fillGap(msg.CellID, msg.Slot, o.lastDeliveredUL, true)
		o.lastDeliveredUL[msg.CellID] = msg.Slot
	case *fapi.DLConfig:
		o.fillGap(msg.CellID, msg.Slot, o.lastDeliveredDL, false)
		o.lastDeliveredDL[msg.CellID] = msg.Slot
	}
	o.ToPHY(m)
}

func (o *Orion) fillGap(cell uint16, slot uint64, last map[uint16]uint64, uplink bool) {
	prev, seen := last[cell]
	if !seen || slot <= prev+1 {
		return
	}
	for s := prev + 1; s < slot && s < prev+8; s++ {
		// Ownership of the null config transfers to the PHY with the
		// delivery (it retains configs until its slot GC), so no release
		// here.
		var m fapi.Message
		if uplink {
			m = fapi.GetULConfig(cell, s)
		} else {
			m = fapi.GetDLConfig(cell, s)
		}
		o.Stats.GapFilled++
		o.ToPHY(m)
	}
}

// deliverToL2 forwards PHY responses from the currently relevant PHY and
// drops the standby's (Fig 6). Responses from the old active for
// pre-migration slots are still accepted (pipelined slot processing,
// Fig 7).
func (o *Orion) deliverToL2(m fapi.Message, src netmodel.Addr) {
	// Every message here came from Decode and is owned by this Orion. The
	// L2's handlers copy whatever they keep (RLC ingest copies SDU bytes),
	// so the message is recycled wholesale once delivery — or the standby
	// filter — is done with it.
	defer fapi.ReleaseDeep(m)
	c := o.cells[m.Cell()]
	if c == nil || o.ToL2 == nil {
		return
	}
	srcServer, ok := serverOfOrionAddr(src)
	if !ok {
		return
	}
	expected := o.serverForSlot(c, m.AbsSlot())
	if _, isSlotless := m.(*fapi.ConfigResponse); isSlotless {
		// Config responses: accept the active PHY's only.
		expected = o.activeServer(c)
	}
	if srcServer != expected {
		o.Stats.RespDropped++
		return
	}
	o.ToL2(m)
}

// serverOfOrionAddr inverts netmodel.OrionAddr.
func serverOfOrionAddr(a netmodel.Addr) (uint8, bool) {
	base := netmodel.OrionAddr(0)
	if a >= base && a < base+256 {
		return uint8(a - base), true
	}
	return 0, false
}

// Migrate performs a planned migration of cell's PHY processing to the
// current standby at a TTI boundary MigrationLead slots in the future
// (§6.3). It returns the boundary slot.
func (o *Orion) Migrate(cell uint16) uint64 {
	return o.migrate(cell, false)
}

func (o *Orion) migrate(cell uint16, failover bool) uint64 {
	c := o.cells[cell]
	if c == nil {
		return 0
	}
	if o.failedServers[o.standbyServer(c)] {
		// The standby is known-dead: migrating would lose the cell. A
		// spare must be provisioned first (ReplaceStandby).
		return 0
	}
	boundary := o.currentSlot() + o.Cfg.MigrationLead
	target := o.standbyServer(c)
	c.activePrimary = !c.activePrimary
	c.switchFromSlot = boundary
	c.migrations++
	o.Stats.Migrations++
	if failover {
		o.Stats.Failovers++
	}

	// Trigger fronthaul migration: migrate_on_slot to the switch (§5.1).
	// RU id and PHY id are the operator-assigned logical ids.
	cmd := &switchsim.Command{
		Type:    switchsim.CmdMigrateOnSlot,
		RU:      uint8(cell),
		PHY:     target,
		Slot:    fronthaul.SlotFromCounter(boundary),
		AbsSlot: boundary,
	}
	if o.SendFrame != nil {
		f := netmodel.GetFrame()
		f.Src = o.Addr
		f.Dst = netmodel.ControllerAddr()
		f.Type = netmodel.EtherTypeControl
		f.Payload = cmd.Encode()
		o.SendFrame(f)
	}
	ev := MigrationEvent{
		Cell: cell, At: o.Engine.Now(), AtSlot: boundary,
		ToServer: target, Failover: failover,
	}
	o.MigrationLog = append(o.MigrationLog, ev)
	if o.OnMigration != nil {
		o.OnMigration(ev)
	}
	return boundary
}

// handleFailure reacts to an in-switch failure notification: migrate every
// cell whose active PHY ran on the failed server. Cells are visited in id
// order so multi-cell failovers replay identically for a given seed.
func (o *Orion) handleFailure(phyServer uint8) {
	o.failedServers[phyServer] = true
	for _, id := range o.Cells() {
		c := o.cells[id]
		if o.activeServer(c) == phyServer {
			o.migrate(c.id, true)
		}
	}
}

// currentSlot estimates the current absolute slot from the engine clock.
func (o *Orion) currentSlot() uint64 {
	const tti = 500 * sim.Microsecond
	return uint64(o.Engine.Now() / tti)
}

// StoredInit returns the duplicated CONFIG.request for a cell, used to
// provision replacement secondaries after a failover (§6.3).
func (o *Orion) StoredInit(cell uint16) *fapi.ConfigRequest {
	c := o.cells[cell]
	if c == nil {
		return nil
	}
	return c.storedInit
}

// ReplaceStandby points the cell's standby at a new server and provisions
// it from the stored init request (used after failover when a spare server
// is available).
func (o *Orion) ReplaceStandby(cell uint16, server uint8) {
	c := o.cells[cell]
	if c == nil {
		return
	}
	if c.activePrimary {
		c.secondary = server
	} else {
		c.primary = server
	}
	delete(o.failedServers, server)
	if c.storedInit != nil {
		o.netSend(server, c.storedInit)
		if c.started {
			o.netSend(server, &fapi.StartRequest{CellID: cell})
		}
	}
}

// Cells returns the ids of registered cells in sorted order.
func (o *Orion) Cells() []uint16 {
	out := make([]uint16, 0, len(o.cells))
	for id := range o.cells {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}
