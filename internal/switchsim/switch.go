package switchsim

import (
	"fmt"

	"slingshot/internal/fronthaul"
	"slingshot/internal/netmodel"
	"slingshot/internal/sim"
)

// MaxIDs is the id space of the indirection layer: vRAN operators assign
// logical 8-bit RU and PHY ids at installation time, so the dataplane maps
// are plain register arrays instead of general hash tables (§5.1).
const MaxIDs = 256

// NoPHY marks an unmapped RU.
const NoPHY = 0xFF

type migrationRequest struct {
	armed   bool
	slot    fronthaul.SlotID
	absSlot uint64
	phy     uint8
	armedAt sim.Time
}

type detectorState struct {
	armed  bool
	notify netmodel.Addr
	// resetTick is the index of the last timer tick at or before the
	// PHY's most recent downlink packet (the emulated counter reset);
	// the counter value at tick k is k - resetTick.
	resetTick int64
	// seen gates counting until the PHY's first downlink packet: a
	// liveness detector cannot time out a stream that never started.
	seen bool
	// fired latches until the PHY is re-armed, so a dead PHY produces one
	// notification, not one per tick.
	fired bool
	// pending guards the detector's single in-flight deadline event.
	pending bool
}

// MigrationRecord describes one executed fronthaul migration.
type MigrationRecord struct {
	RU       uint8
	FromPHY  uint8
	ToPHY    uint8
	At       sim.Time
	Slot     fronthaul.SlotID
	ArmDelay sim.Time // time between command arrival and execution
	// ReqAbsSlot is the absolute boundary slot the migrate_on_slot command
	// requested: execution must be at or after this TTI boundary.
	ReqAbsSlot uint64
}

// Stats counts dataplane activity.
type Stats struct {
	Forwarded          uint64
	UplinkForwarded    uint64
	DownlinkForwarded  uint64
	DroppedNoRoute     uint64
	DroppedStalePHY    uint64 // DL packets from a non-active PHY (§5.1)
	DroppedUnmappedRU  uint64
	CommandsReceived   uint64
	FailuresDetected   uint64
	MigrationsExecuted uint64
}

// Switch is the Tofino-style device. It implements netmodel.Receiver as
// its ingress pipeline; egress links are registered per endpoint address.
type Switch struct {
	Engine *sim.Engine
	Stats  Stats

	// Egress ports by endpoint MAC.
	ports map[netmodel.Addr]*netmodel.Link

	// Dataplane tables and registers.
	ruIDByMAC   map[netmodel.Addr]uint8 // ID directory (match-action)
	phyIDByMAC  map[netmodel.Addr]uint8 // reverse PHY directory
	phyMACByID  [MaxIDs]netmodel.Addr   // address directory
	ruMACByID   [MaxIDs]netmodel.Addr
	ruToPHY     [MaxIDs]uint8 // RU-to-PHY mapping register
	migrations  [MaxIDs]migrationRequest
	detectors   [MaxIDs]detectorState
	ctrlPending int

	// Detector configuration (§5.2.2): timeout T emulated by n timer
	// packets per period. The tick grid is virtual — ticksDone computes
	// tick indices from the clock instead of firing 1/period events — so
	// the packet generator costs one deadline event per timeout period
	// per armed PHY, not TimerTicks scans of the id space.
	Timeout    sim.Time
	TimerTicks int
	tickOrigin sim.Time // time of tick 1; grid fixed at first arm
	tickPeriod sim.Time
	timerOn    bool
	deadlineFn func(any) // bound onDetectorDeadline, allocated once

	// History of executed migrations and detections for the experiments.
	MigrationLog []MigrationRecord
	DetectionLog []sim.Time

	// OnMigration, if set, observes each executed migration as it happens.
	OnMigration func(MigrationRecord)
	// OnULForward, if set, observes every forwarded uplink fronthaul packet
	// after the RU-to-PHY mapping was resolved (invariant checkers use it
	// to assert migrations take effect exactly at TTI boundaries).
	OnULForward func(ru uint8, slot fronthaul.SlotID, phy uint8)

	// Inter-packet gap observation per PHY (the §8.6 measurement that
	// justifies the 450 µs timeout).
	dlLastSeen [MaxIDs]sim.Time
	dlEverSeen [MaxIDs]bool
	DLGapMax   [MaxIDs]sim.Time

	// ControlPlaneLatency models the slow path for rule updates; the
	// paper measures 29 ms p99.9 in their testbed. Used only by the
	// *ControlPlane methods; dataplane updates are per-packet.
	ControlPlaneLatency sim.Time

	rng *sim.RNG
}

// DefaultTimeout is the failure-detector timeout chosen in §8.6 from the
// measured 393 µs max inter-packet gap.
const DefaultTimeout = 450 * sim.Microsecond

// DefaultTimerTicks is n in §5.2.2: 50 ticks per timeout period gives 9 µs
// precision at negligible packet-generator load.
const DefaultTimerTicks = 50

// New creates a switch.
func New(e *sim.Engine, rng *sim.RNG) *Switch {
	s := &Switch{
		Engine:              e,
		ports:               make(map[netmodel.Addr]*netmodel.Link),
		ruIDByMAC:           make(map[netmodel.Addr]uint8),
		phyIDByMAC:          make(map[netmodel.Addr]uint8),
		Timeout:             DefaultTimeout,
		TimerTicks:          DefaultTimerTicks,
		ControlPlaneLatency: 10 * sim.Millisecond,
		rng:                 rng,
	}
	s.deadlineFn = s.onDetectorDeadline
	for i := range s.ruToPHY {
		s.ruToPHY[i] = NoPHY
	}
	return s
}

// Connect registers the egress link toward an endpoint address.
func (s *Switch) Connect(addr netmodel.Addr, link *netmodel.Link) {
	s.ports[addr] = link
}

// Port returns the egress link toward an endpoint address (nil if none).
// Fault-injection harnesses use it to perturb a specific cable.
func (s *Switch) Port(addr netmodel.Addr) *netmodel.Link {
	return s.ports[addr]
}

// InstallRU populates the ID and address directories for an RU. Installation
// is a deployment-time control-plane operation.
func (s *Switch) InstallRU(id uint8, mac netmodel.Addr) {
	s.ruIDByMAC[mac] = id
	s.ruMACByID[id] = mac
}

// InstallPHY populates the PHY address directory.
func (s *Switch) InstallPHY(id uint8, mac netmodel.Addr) {
	s.phyIDByMAC[mac] = id
	s.phyMACByID[id] = mac
}

// SetMapping sets the RU-to-PHY mapping register directly (deployment
// initialization; runtime changes go through migrate_on_slot commands).
func (s *Switch) SetMapping(ru, phy uint8) {
	s.ruToPHY[ru] = phy
}

// Mapping returns the current PHY id serving an RU.
func (s *Switch) Mapping(ru uint8) uint8 { return s.ruToPHY[ru] }

// SetMappingViaControlPlane models the slow path: the remap takes effect
// after the control-plane rule-update latency, with no TTI alignment.
// This is the baseline Slingshot's in-dataplane update avoids.
func (s *Switch) SetMappingViaControlPlane(ru, phy uint8, done func(sim.Time)) {
	issued := s.Engine.Now()
	// Rule updates exhibit a heavy tail; model lognormal-ish latency with
	// the paper's 29 ms p99.9.
	lat := s.ControlPlaneLatency + sim.Time(s.rng.Exp(float64(4*sim.Millisecond)))
	s.Engine.After(lat, "switch.ctrl-update", func() {
		s.ruToPHY[ru] = phy
		if done != nil {
			done(s.Engine.Now() - issued)
		}
	})
}

// ArmDetector enables failure detection for a PHY id, sending
// notifications to notify (the L2-side Orion). Also starts the timer
// packet generator on first use.
func (s *Switch) ArmDetector(phy uint8, notify netmodel.Addr) {
	// An already-scheduled deadline event survives re-arming; pending
	// must carry over so the detector never has two events in flight.
	pending := s.detectors[phy].pending
	s.detectors[phy] = detectorState{armed: true, notify: notify, pending: pending}
	s.startTimer()
}

// DisarmDetector stops monitoring a PHY (e.g. after it was migrated away
// from and is expected to be silent).
func (s *Switch) DisarmDetector(phy uint8) {
	s.detectors[phy].armed = false
}

func (s *Switch) startTimer() {
	if s.timerOn {
		return
	}
	period := s.Timeout / sim.Time(s.TimerTicks)
	if period < 1 {
		period = 1
	}
	s.tickPeriod = period
	s.tickOrigin = s.Engine.Now() + period // Every(period, period) grid
	s.timerOn = true
}

// ticksDone is the number of emulated timer-packet ticks whose grid time
// is at or before t. Tick k fires at tickOrigin + (k-1)*period; a tick
// coinciding exactly with a downlink packet counts as having fired before
// the packet's counter reset.
func (s *Switch) ticksDone(t sim.Time) int64 {
	if !s.timerOn || t < s.tickOrigin {
		return 0
	}
	return int64((t-s.tickOrigin)/s.tickPeriod) + 1
}

// detectionTime is the grid time of the tick that pushes the PHY's counter
// to TimerTicks: the TimerTicks-th tick after its last reset.
func (s *Switch) detectionTime(d *detectorState) sim.Time {
	k := d.resetTick + int64(s.TimerTicks)
	return s.tickOrigin + sim.Time(k-1)*s.tickPeriod
}

// armDeadline ensures a counting detector has one deadline event in
// flight. Downlink packets only move resetTick — the pending event
// re-projects the deadline when it fires, so the steady-state cost is one
// event per timeout period per armed PHY instead of a tick every T/n.
func (s *Switch) armDeadline(phy uint8) {
	d := &s.detectors[phy]
	if d.pending || !d.armed || !d.seen || d.fired || !s.timerOn {
		return
	}
	d.pending = true
	s.Engine.AtArg(s.detectionTime(d), "switch.timer", s.deadlineFn, int(phy))
}

// onDetectorDeadline fires when a PHY's emulated counter would reach
// TimerTicks had no downlink packet arrived since the event was scheduled.
// If packets did arrive (resetTick advanced), it re-arms at the projected
// deadline; otherwise this tick is the detection.
func (s *Switch) onDetectorDeadline(arg any) {
	phy := uint8(arg.(int))
	d := &s.detectors[phy]
	d.pending = false
	if !d.armed || !d.seen || d.fired || !s.timerOn {
		return
	}
	if at := s.detectionTime(d); s.Engine.Now() < at {
		d.pending = true
		s.Engine.AtArg(at, "switch.timer", s.deadlineFn, int(phy))
		return
	}
	d.fired = true
	s.Stats.FailuresDetected++
	s.DetectionLog = append(s.DetectionLog, s.Engine.Now())
	nf := netmodel.GetFrame()
	nf.Src = netmodel.ControllerAddr()
	nf.Dst = d.notify
	nf.Type = netmodel.EtherTypeControl
	nf.Payload = (&Command{Type: CmdFailureNotify, PHY: phy}).Encode()
	s.sendTo(d.notify, nf)
}

// HandleFrame is the ingress pipeline.
func (s *Switch) HandleFrame(f *netmodel.Frame) {
	switch f.Type {
	case netmodel.EtherTypeECPRI:
		s.handleFronthaul(f)
	case netmodel.EtherTypeControl:
		s.handleControl(f)
	default:
		// Non-fronthaul traffic (FAPI, user data) switches on plain L2
		// destination.
		s.forward(f.Dst, f)
	}
}

func (s *Switch) handleFronthaul(f *netmodel.Frame) {
	slot, dir, ok := fronthaul.PeekSlot(f.Payload)
	if !ok {
		s.Stats.DroppedNoRoute++
		netmodel.ReleaseFrame(f)
		return
	}
	if dir == fronthaul.Uplink {
		s.handleUplink(f, slot)
	} else {
		s.handleDownlink(f, slot)
	}
}

// handleUplink steers RU→PHY packets: ID directory → migration check →
// RU-to-PHY register → address directory (§5.1, Fig 5).
func (s *Switch) handleUplink(f *netmodel.Frame, slot fronthaul.SlotID) {
	ru, ok := s.ruIDByMAC[f.Src]
	if !ok {
		s.Stats.DroppedUnmappedRU++
		netmodel.ReleaseFrame(f)
		return
	}
	s.maybeMigrate(ru, slot)
	phy := s.ruToPHY[ru]
	if phy == NoPHY {
		s.Stats.DroppedNoRoute++
		netmodel.ReleaseFrame(f)
		return
	}
	dst := s.phyMACByID[phy]
	if dst == 0 {
		s.Stats.DroppedNoRoute++
		netmodel.ReleaseFrame(f)
		return
	}
	// Rewrite the virtual PHY address to the physical one.
	f.Dst = dst
	s.Stats.UplinkForwarded++
	if s.OnULForward != nil {
		s.OnULForward(ru, slot, phy)
	}
	s.forward(dst, f)
}

// handleDownlink steers PHY→RU packets, feeding the failure detector and
// dropping packets from PHYs that are not the RU's active PHY.
func (s *Switch) handleDownlink(f *netmodel.Frame, slot fronthaul.SlotID) {
	phy, ok := s.phyIDByMAC[f.Src]
	if !ok {
		s.Stats.DroppedNoRoute++
		return
	}
	// Natural heartbeat: any downlink packet from the PHY clears its gap
	// counter (§5.2.2).
	now := s.Engine.Now()
	if s.dlEverSeen[phy] {
		if gap := now - s.dlLastSeen[phy]; gap > s.DLGapMax[phy] {
			s.DLGapMax[phy] = gap
		}
	}
	s.dlLastSeen[phy] = now
	s.dlEverSeen[phy] = true
	d := &s.detectors[phy]
	d.resetTick = s.ticksDone(now)
	d.seen = true
	if d.fired {
		// The PHY is sending again (restart/recovery); re-arm.
		d.fired = false
	}
	s.armDeadline(phy)

	ru, ok := s.ruIDByMAC[f.Dst]
	if !ok {
		s.Stats.DroppedNoRoute++
		netmodel.ReleaseFrame(f)
		return
	}
	s.maybeMigrate(ru, slot)
	if s.ruToPHY[ru] != phy {
		// Blocks the hot-standby secondary's control-plane packets from
		// reaching the RU (§5, requirement 2).
		s.Stats.DroppedStalePHY++
		netmodel.ReleaseFrame(f)
		return
	}
	s.Stats.DownlinkForwarded++
	s.forward(f.Dst, f)
}

// maybeMigrate executes a pending migration request when a packet for the
// RU reaches the migration slot: a pure dataplane register update, so it
// happens at nanosecond scale and exactly at a TTI boundary.
func (s *Switch) maybeMigrate(ru uint8, slot fronthaul.SlotID) {
	req := &s.migrations[ru]
	if !req.armed || !slotGE(slot, req.slot) {
		return
	}
	from := s.ruToPHY[ru]
	s.ruToPHY[ru] = req.phy
	req.armed = false
	s.Stats.MigrationsExecuted++
	rec := MigrationRecord{
		RU: ru, FromPHY: from, ToPHY: req.phy,
		At: s.Engine.Now(), Slot: slot,
		ArmDelay:   s.Engine.Now() - req.armedAt,
		ReqAbsSlot: req.absSlot,
	}
	s.MigrationLog = append(s.MigrationLog, rec)
	if s.OnMigration != nil {
		s.OnMigration(rec)
	}
}

func (s *Switch) handleControl(f *netmodel.Frame) {
	// Frames not addressed to the switch's controller endpoint are plain
	// L2 traffic (e.g. Orion→Orion notifications relayed through us).
	if f.Dst != netmodel.ControllerAddr() {
		s.forward(f.Dst, f)
		return
	}
	cmd, err := DecodeCommand(f.Payload)
	netmodel.ReleaseFrame(f) // terminal: the command is decoded out
	if err != nil {
		s.Stats.DroppedNoRoute++
		return
	}
	s.Stats.CommandsReceived++
	if cmd.Type == CmdMigrateOnSlot {
		s.migrations[cmd.RU] = migrationRequest{
			armed: true, slot: cmd.Slot, absSlot: cmd.AbsSlot,
			phy: cmd.PHY, armedAt: s.Engine.Now(),
		}
	}
}

func (s *Switch) forward(dst netmodel.Addr, f *netmodel.Frame) {
	link := s.ports[dst]
	if link == nil {
		s.Stats.DroppedNoRoute++
		netmodel.ReleaseFrame(f)
		return
	}
	s.Stats.Forwarded++
	link.Send(f)
}

// sendTo emits a switch-originated frame (failure notifications).
func (s *Switch) sendTo(dst netmodel.Addr, f *netmodel.Frame) {
	s.forward(dst, f)
}

// PendingMigration reports whether RU ru has an armed migration request.
func (s *Switch) PendingMigration(ru uint8) bool { return s.migrations[ru].armed }

// Stop halts the timer packet generator: in-flight deadline events become
// no-ops and nothing further is scheduled.
func (s *Switch) Stop() {
	s.timerOn = false
}

// DetectionPrecision returns the worst-case extra latency of the emulated
// timer (T/n), 9 µs at the defaults.
func (s *Switch) DetectionPrecision() sim.Time {
	return s.Timeout / sim.Time(s.TimerTicks)
}

func (s *Switch) String() string {
	return fmt.Sprintf("switch(ports=%d, rus=%d, phys=%d)",
		len(s.ports), len(s.ruIDByMAC), len(s.phyIDByMAC))
}
