// Package chaos is a deterministic fault-injection engine for the
// simulated vRAN: from a single uint64 seed it draws a randomized fault
// schedule — PHY SIGKILLs, standby kills, migration storms, fronthaul
// loss/corruption/reorder bursts, link latency spikes, RU glitches, L2
// live upgrades — and executes it against a core.Deployment on the
// virtual clock while the cross-layer invariant Checker (invariants.go)
// watches every seam. The same (seed, profile) pair always reproduces
// the same schedule, the same packet-level perturbations, and the same
// metric series, so any violation is replayable from its seed alone.
package chaos

import (
	"encoding/binary"
	"fmt"
	"strings"

	"slingshot/internal/ckpt/wire"
	"slingshot/internal/core"
	"slingshot/internal/fapi"
	"slingshot/internal/fronthaul"
	"slingshot/internal/mem"
	"slingshot/internal/netmodel"
	"slingshot/internal/phy"
	"slingshot/internal/sim"
	"slingshot/internal/trace"
)

// Traffic direction tags in the sequence-stamped chaos packets.
const (
	dirUp   = 0x55
	dirDown = 0xAA
)

// stampPacket builds one chaos traffic packet: "CH" magic, direction tag,
// flow id and a big-endian sequence number, padded to size.
func stampPacket(dir byte, flow uint16, seq uint64, size int) []byte {
	if size < 13 {
		size = 13
	}
	pkt := make([]byte, size)
	pkt[0], pkt[1], pkt[2] = 'C', 'H', dir
	pkt[3], pkt[4] = byte(flow>>8), byte(flow)
	for i := 0; i < 8; i++ {
		pkt[5+i] = byte(seq >> (56 - 8*i))
	}
	for i := 13; i < size; i++ {
		pkt[i] = byte(seq) ^ byte(i)
	}
	return pkt
}

// parseSeq recovers the sequence number from a chaos traffic packet; it
// reports false for packets that are not chaos-stamped for dir.
func parseSeq(pkt []byte, dir byte) (uint64, bool) {
	if len(pkt) < 13 || pkt[0] != 'C' || pkt[1] != 'H' || pkt[2] != dir {
		return 0, false
	}
	var seq uint64
	for i := 0; i < 8; i++ {
		seq = seq<<8 | uint64(pkt[5+i])
	}
	return seq, true
}

// TrafficPacket builds one sequence-stamped traffic packet in the chaos
// framing, understood by Checker.ObserveUplink/ObserveDownlink — exported
// so external traffic generators (the shard fleet) feed the same in-order
// delivery invariant.
func TrafficPacket(down bool, flow uint16, seq uint64, size int) []byte {
	dir := byte(dirUp)
	if down {
		dir = dirDown
	}
	return stampPacket(dir, flow, seq, size)
}

// interceptor sits on one fronthaul cable (it wraps the link's receiver)
// and applies the currently armed perturbations to eCPRI frames only.
// Burst executors toggle the probability fields; outside bursts every
// field is zero and frames pass through untouched.
type interceptor struct {
	eng   *sim.Engine
	rng   *sim.RNG
	inner netmodel.Receiver

	// rec records each perturbation as a fh-perturb event; cell and dir
	// (0=uplink, 1=downlink) locate the tapped cable. Frame delivery runs
	// on the event-loop goroutine, so emission is worker-count invariant.
	rec  *trace.Recorder
	cell uint16
	dir  uint8

	lossProb    float64
	corruptProb float64
	reorderProb float64
	extraDelay  sim.Time

	Dropped   uint64
	Corrupted uint64
	Reordered uint64
}

func (ic *interceptor) HandleFrame(f *netmodel.Frame) {
	if f.Type != netmodel.EtherTypeECPRI {
		ic.inner.HandleFrame(f)
		return
	}
	if ic.lossProb > 0 && ic.rng.Bool(ic.lossProb) {
		ic.Dropped++
		ic.perturb("loss", ic.Dropped, "chaos.fh.dropped")
		netmodel.ReleaseFrame(f)
		return
	}
	if ic.corruptProb > 0 && ic.rng.Bool(ic.corruptProb) {
		if g := corruptIQ(f, ic.rng); g != nil {
			ic.Corrupted++
			ic.perturb("corrupt", ic.Corrupted, "chaos.fh.corrupted")
			netmodel.ReleaseFrame(f)
			f = g
		}
	}
	delay := ic.extraDelay
	if ic.reorderProb > 0 && ic.rng.Bool(ic.reorderProb) {
		// Hold the frame long enough for later frames to overtake it.
		delay += 40 * sim.Microsecond
		ic.Reordered++
		ic.perturb("reorder", ic.Reordered, "chaos.fh.reordered")
	}
	if delay > 0 {
		held := f
		ic.eng.After(delay, "chaos.fh-delay", func() { ic.inner.HandleFrame(held) })
		return
	}
	ic.inner.HandleFrame(f)
}

// perturb records one applied perturbation in the trace and bumps its
// per-family counter.
func (ic *interceptor) perturb(family string, cum uint64, counter string) {
	if ic.rec == nil {
		return
	}
	ic.rec.EmitLabeled(trace.KindFronthaulLoss, family, 0, ic.cell, 0, uint64(ic.dir), cum)
	ic.rec.Metrics().Counter(counter).Inc()
}

// corruptIQ flips 1-3 bytes inside the U-plane IQ payload region of an
// eCPRI frame. Only the BFP IQ bytes are touched: the header, the C-plane
// and the Aux sidecar model CRC-protected control in a real fronthaul, and
// corrupting them would forge grants rather than emulate channel noise.
// Returns nil when the frame is not a corruptible U-plane packet.
func corruptIQ(f *netmodel.Frame, rng *sim.RNG) *netmodel.Frame {
	data := f.Payload
	const hdr = 21 // fronthaul fixed header length
	if len(data) < hdr || data[0]>>4 != fronthaul.CurrentVersion ||
		fronthaul.MessageType(data[0]&0x0F) != fronthaul.MsgIQData {
		return nil
	}
	plen := int(data[1])<<8 | int(data[2])
	if plen == 0 || len(data) < hdr+plen {
		return nil
	}
	buf := append(mem.GetBytesCap(len(data)), data...)
	for n := 1 + rng.Intn(3); n > 0; n-- {
		buf[hdr+rng.Intn(plen)] ^= byte(1 + rng.Intn(255))
	}
	g := netmodel.GetFrame()
	*g = *f
	g.Payload = buf
	return g
}

// TrafficBin aggregates delivered application bytes over one 10 ms window
// of virtual time; the bin series is the run's metric fingerprint input.
type TrafficBin struct {
	UL uint64
	DL uint64
}

const binWidth = 10 * sim.Millisecond

// CellDrop reports the total slot-indication gap observed for one cell.
type CellDrop struct {
	Cell    uint16
	Dropped uint64
}

// FlowStat reports per-UE in-order delivered packet counts.
type FlowStat struct {
	UE uint16
	UL uint64
	DL uint64
}

// Report is the deterministic outcome of one chaos run.
type Report struct {
	Seed    uint64
	Profile string
	Horizon sim.Time

	Events          []string
	Violations      []Violation
	TotalViolations int

	Migrations int
	Detections int
	Dropped    []CellDrop
	Flows      []FlowStat
	Bins       []TrafficBin

	Fingerprint uint64

	// Flight is the flight-recorder dump captured at the first invariant
	// violation: the trace timeline leading up to it plus counter deltas
	// since the checker attached. Empty on clean runs. It is rendered after
	// the fingerprint line and excluded from the fingerprint itself, so
	// clean-run fingerprints are unchanged by tracing.
	Flight string
}

func (r *Report) addBin(at sim.Time, n int, down bool) {
	i := int(at / binWidth)
	if i < 0 {
		return
	}
	for len(r.Bins) <= i {
		r.Bins = append(r.Bins, TrafficBin{})
	}
	if down {
		r.Bins[i].DL += uint64(n)
	} else {
		r.Bins[i].UL += uint64(n)
	}
}

// body renders everything the fingerprint covers.
func (r *Report) body() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos run: seed=%d profile=%s horizon=%.3fs\n",
		r.Seed, r.Profile, float64(r.Horizon)/float64(sim.Second))
	fmt.Fprintf(&b, "switch: %d migrations executed, %d failures detected\n",
		r.Migrations, r.Detections)
	for _, c := range r.Dropped {
		fmt.Fprintf(&b, "cell %d: %d TTIs dropped total\n", c.Cell, c.Dropped)
	}
	for _, f := range r.Flows {
		fmt.Fprintf(&b, "ue %d: %d uplink / %d downlink packets in order\n", f.UE, f.UL, f.DL)
	}
	fmt.Fprintf(&b, "traffic series: %d bins, digest %016x\n", len(r.Bins), r.seriesDigest())
	fmt.Fprintf(&b, "events (%d):\n", len(r.Events))
	for _, e := range r.Events {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	fmt.Fprintf(&b, "violations: %d\n", r.TotalViolations)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	return b.String()
}

// seriesDigest hashes the 10 ms UL/DL byte series, each value
// little-endian.
func (r *Report) seriesDigest() uint64 {
	h := wire.HashInit
	var b [16]byte
	for _, bin := range r.Bins {
		binary.LittleEndian.PutUint64(b[:8], bin.UL)
		binary.LittleEndian.PutUint64(b[8:], bin.DL)
		h = wire.HashMore(h, b[:])
	}
	return h
}

// String renders the report with its fingerprint line, followed by the
// flight-recorder dump when the run violated an invariant.
func (r *Report) String() string {
	s := r.body() + fmt.Sprintf("fingerprint: %016x\n", r.Fingerprint)
	if r.TotalViolations > 0 && r.Flight != "" {
		s += r.Flight
	}
	return s
}

// Finalize computes the fingerprint from the report's rendered body.
// chaos.Run calls it implicitly; external report builders (per-cell fleet
// reports) call it once after filling in the fields.
func (r *Report) Finalize() { r.Fingerprint = wire.Hash64([]byte(r.body())) }

// Err returns a non-nil error when any invariant was violated.
func (r *Report) Err() error {
	if r.TotalViolations == 0 {
		return nil
	}
	first := ""
	if len(r.Violations) > 0 {
		first = ": " + r.Violations[0].String()
	}
	return fmt.Errorf("chaos: seed %d violated %d invariant(s)%s", r.Seed, r.TotalViolations, first)
}

type runner struct {
	seed uint64
	p    Profile
	d    *core.Deployment
	eng  *sim.Engine
	chk  *Checker
	rep  *Report
	rec  *trace.Recorder

	cells []uint16
	ues   []uint16
	taps  map[uint16][2]*interceptor

	ulSeq map[uint16]uint64
	dlSeq map[uint16]uint64
}

// Run executes one chaos schedule and returns its report. The same
// (seed, profile) pair reproduces the identical run.
func Run(seed uint64, p Profile) *Report {
	rep, _ := RunTraced(seed, p)
	return rep
}

// RunTraced is Run, additionally returning the run's trace recorder: the
// full cross-layer event ring and counter registry the flight recorder
// samples from. Every chaos run records (the recorder is how violations
// get explained); RunTraced just exposes it for export and the
// determinism tests.
func RunTraced(seed uint64, p Profile) (*Report, *trace.Recorder) {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Trace = trace.NewRecorder(0)
	if p.Kills+p.StandbyKills > 0 {
		cfg.SpareServer = 3
	}
	// Additional cells co-locate crossed primary/secondary roles in the
	// two existing PHY processes (§8's multi-RU placement).
	for i := 1; i < p.Cells; i++ {
		cell := uint16(i)
		cfg.ExtraCells = append(cfg.ExtraCells, core.CellSpec{
			Cell:      cell,
			Seed:      cfg.CellSeed + uint64(cell)*0x1001,
			Primary:   cfg.SecondaryServer,
			Secondary: cfg.PrimaryServer,
			UEs: []core.UESpec{
				{ID: uint16(100*i + 1), Name: fmt.Sprintf("cell%d-a", i), MeanSNRdB: 24},
				{ID: uint16(100*i + 2), Name: fmt.Sprintf("cell%d-b", i), MeanSNRdB: 21},
			},
		})
	}

	d := core.NewSlingshot(cfg)
	r := &runner{
		seed:  seed,
		p:     p,
		d:     d,
		eng:   d.Engine,
		rec:   cfg.Trace,
		taps:  make(map[uint16][2]*interceptor),
		ulSeq: make(map[uint16]uint64),
		dlSeq: make(map[uint16]uint64),
		rep: &Report{
			Seed:    seed,
			Profile: p.Name,
			Horizon: p.Horizon,
		},
	}
	r.cells = append(r.cells, cfg.Cell)
	for _, spec := range cfg.ExtraCells {
		r.cells = append(r.cells, spec.Cell)
	}
	r.ues = append(r.ues, ueIDs(cfg.UEs)...)
	for _, spec := range cfg.ExtraCells {
		r.ues = append(r.ues, ueIDs(spec.UEs)...)
	}

	r.chk = Attach(d)

	// The chaos RNG root forks off the deployment's (already fully forked)
	// root stream, so chaos draws never perturb component randomness.
	crng := d.RNG.Fork(0xC7A055ED)
	r.installInterceptors(crng)
	r.installTrafficSinks()

	d.Start()
	r.scheduleTraffic()
	r.scheduleFaults(crng)
	d.Run(p.Horizon)
	d.Stop()
	r.chk.Finish()
	return r.finalize(), r.rec
}

func ueIDs(specs []core.UESpec) []uint16 {
	out := make([]uint16, 0, len(specs))
	for _, s := range specs {
		out = append(out, s.ID)
	}
	return out
}

// installInterceptors wraps each cell's two fronthaul cables (RU→switch
// and switch→RU) with perturbation hooks.
func (r *runner) installInterceptors(crng *sim.RNG) {
	for _, cell := range r.cells {
		addr := netmodel.RUAddr(cell)
		up := r.d.Links[addr]         // RU → switch
		down := r.d.Switch.Port(addr) // switch → RU
		icUp := &interceptor{eng: r.eng, rng: crng.Fork(0x100 + uint64(cell)), inner: up.To,
			rec: r.rec, cell: cell, dir: 0}
		up.To = icUp
		icDown := &interceptor{eng: r.eng, rng: crng.Fork(0x200 + uint64(cell)), inner: down.To,
			rec: r.rec, cell: cell, dir: 1}
		down.To = icDown
		r.taps[cell] = [2]*interceptor{icUp, icDown}
	}
}

// installTrafficSinks routes delivered packets into the invariant checker
// and the 10 ms metric bins.
func (r *runner) installTrafficSinks() {
	r.d.OnUplink(func(ueID uint16, pkt []byte) {
		r.chk.ObserveUplink(ueID, pkt)
		r.rep.addBin(r.eng.Now(), len(pkt), false)
	})
	for _, id := range r.ues {
		u := r.d.UEs[id]
		uid := id
		inner := u.OnDownlink
		u.OnDownlink = func(pkt []byte) {
			r.chk.ObserveDownlink(uid, pkt)
			r.rep.addBin(r.eng.Now(), len(pkt), true)
			if inner != nil {
				inner(pkt)
			}
		}
	}
}

// scheduleTraffic drives sequence-stamped uplink and downlink packets for
// every UE; traffic ends shortly before the horizon so tails drain.
func (r *runner) scheduleTraffic() {
	period := r.p.TrafficPeriod
	if period <= 0 {
		return
	}
	stopAt := r.p.Horizon - 30*sim.Millisecond
	var tick func()
	tick = func() {
		for _, id := range r.ues {
			u := r.d.UEs[id]
			r.ulSeq[id]++
			u.SendUplink(stampPacket(dirUp, id, r.ulSeq[id], r.p.PacketBytes))
			r.dlSeq[id]++
			r.d.SendDownlink(id, stampPacket(dirDown, id, r.dlSeq[id], r.p.PacketBytes))
		}
		if r.eng.Now()+period < stopAt {
			r.eng.After(period, "chaos.traffic", tick)
		}
	}
	r.eng.At(40*sim.Millisecond, "chaos.traffic", tick)
}

func (r *runner) event(format string, args ...any) {
	r.rep.Events = append(r.rep.Events,
		fmt.Sprintf("%9.3fms  %s", float64(r.eng.Now())/float64(sim.Millisecond), fmt.Sprintf(format, args...)))
}

// scheduleFaults draws the whole fault schedule up front from dedicated
// RNG streams — one per fault family, so profiles compose independently.
func (r *runner) scheduleFaults(crng *sim.RNG) {
	p := r.p

	// Process kills: segmented across the window so detection, failover
	// and spare reprovisioning complete between consecutive kills.
	if kills := p.Kills + p.StandbyKills; kills > 0 {
		st := crng.Fork(1)
		lo, hi := p.Settle, p.Horizon-250*sim.Millisecond
		if hi <= lo {
			hi = lo + 20*sim.Millisecond
		}
		seg := (hi - lo) / sim.Time(kills)
		for i := 0; i < kills; i++ {
			jitter := sim.Time(st.Float64() * float64(seg) * 0.6)
			t := lo + sim.Time(i)*seg + jitter
			standby := i >= p.Kills
			r.eng.At(t, "chaos.kill", func() { r.execKill(standby) })
		}
	}

	if p.Migrations > 0 {
		st := crng.Fork(2)
		lo, hi := p.Settle, p.Horizon-150*sim.Millisecond
		if hi <= lo {
			hi = lo + 20*sim.Millisecond
		}
		for i := 0; i < p.Migrations; i++ {
			t := lo + sim.Time(st.Float64()*float64(hi-lo))
			cell := r.cells[st.Intn(len(r.cells))]
			r.eng.At(t, "chaos.migrate", func() { r.execMigrate(cell) })
		}
	}

	if p.L2Upgrades > 0 {
		st := crng.Fork(3)
		lo, hi := p.Settle, p.Horizon-150*sim.Millisecond
		if hi <= lo {
			hi = lo + 20*sim.Millisecond
		}
		for i := 0; i < p.L2Upgrades; i++ {
			t := lo + sim.Time(st.Float64()*float64(hi-lo))
			r.eng.At(t, "chaos.upgrade", r.execUpgrade)
		}
	}

	if p.RUGlitches > 0 {
		st := crng.Fork(4)
		lo, hi := p.Settle, p.Horizon-150*sim.Millisecond
		if hi <= lo {
			hi = lo + 20*sim.Millisecond
		}
		for i := 0; i < p.RUGlitches; i++ {
			t := lo + sim.Time(st.Float64()*float64(hi-lo))
			cell := r.cells[st.Intn(len(r.cells))]
			r.eng.At(t, "chaos.glitch", func() { r.execGlitch(cell) })
		}
	}

	if p.RogueSlotInds > 0 {
		st := crng.Fork(9)
		lo, hi := p.Settle, p.Horizon-150*sim.Millisecond
		if hi <= lo {
			hi = lo + 20*sim.Millisecond
		}
		for i := 0; i < p.RogueSlotInds; i++ {
			t := lo + sim.Time(st.Float64()*float64(hi-lo))
			cell := r.cells[st.Intn(len(r.cells))]
			r.eng.At(t, "chaos.rogue-slot", func() { r.execRogueSlot(cell) })
		}
	}

	r.scheduleBursts(crng.Fork(5), p.LossBursts, "loss",
		func(ic *interceptor) { ic.lossProb = p.LossProb },
		func(ic *interceptor) { ic.lossProb = 0 })
	r.scheduleBursts(crng.Fork(6), p.CorruptBursts, "corrupt",
		func(ic *interceptor) { ic.corruptProb = p.CorruptProb },
		func(ic *interceptor) { ic.corruptProb = 0 })
	r.scheduleBursts(crng.Fork(7), p.ReorderBursts, "reorder",
		func(ic *interceptor) { ic.reorderProb = p.ReorderProb },
		func(ic *interceptor) { ic.reorderProb = 0 })
	r.scheduleBursts(crng.Fork(8), p.LatencySpikes, "latency-spike",
		func(ic *interceptor) { ic.extraDelay = p.SpikeExtra },
		func(ic *interceptor) { ic.extraDelay = 0 })
}

// scheduleBursts arms one perturbation family on a random cell/direction
// for BurstLen at each drawn time.
func (r *runner) scheduleBursts(st *sim.RNG, count int, kind string, arm, disarm func(*interceptor)) {
	if count <= 0 {
		return
	}
	p := r.p
	lo, hi := p.Settle, p.Horizon-p.BurstLen-100*sim.Millisecond
	if hi <= lo {
		hi = lo + 20*sim.Millisecond
	}
	dirName := [2]string{"uplink", "downlink"}
	for i := 0; i < count; i++ {
		t := lo + sim.Time(st.Float64()*float64(hi-lo))
		cell := r.cells[st.Intn(len(r.cells))]
		dir := st.Intn(2)
		r.eng.At(t, "chaos.burst", func() {
			ic := r.taps[cell][dir]
			arm(ic)
			r.rec.EmitLabeled(trace.KindChaosFault, kind, 0, cell, 0, uint64(dir), 0)
			r.event("%s burst on cell %d %s fronthaul (%.1fms)",
				kind, cell, dirName[dir], float64(p.BurstLen)/float64(sim.Millisecond))
			r.eng.After(p.BurstLen, "chaos.burst-end", func() { disarm(ic) })
		})
	}
}

// execKill crashes the primary cell's active (or standby) PHY process and
// schedules standby reprovisioning onto the spare server.
func (r *runner) execKill(standby bool) {
	cell := r.cells[0]
	var server uint8
	kind := "active"
	if standby {
		server = r.d.L2Orion.StandbyServer(cell)
		kind = "standby"
	} else {
		server = r.d.ActivePHYServerOf(cell)
	}
	p := r.d.PHYs[server]
	if server == 0 || p == nil || p.Crashed() {
		r.event("%s kill skipped (target unavailable)", kind)
		return
	}
	r.event("SIGKILL %s PHY on server %d", kind, server)
	r.rec.EmitLabeled(trace.KindChaosFault, "kill", server, cell, 0, 0, 0)
	r.d.KillServer(server)
	r.eng.After(15*sim.Millisecond, "chaos.reprovision", r.reprovision)
}

// reprovision points every cell whose standby died at the spare server,
// re-initializing the standby from Orion's stored CONFIG (§6.3).
func (r *runner) reprovision() {
	spare := r.d.Cfg.SpareServer
	sp := r.d.PHYs[spare]
	if spare == 0 || sp == nil || sp.Crashed() {
		return
	}
	for _, cell := range r.cells {
		standby := r.d.L2Orion.StandbyServer(cell)
		active := r.d.L2Orion.ActiveServer(cell)
		if active == spare {
			continue // the spare already serves this cell
		}
		if p := r.d.PHYs[standby]; standby != 0 && p != nil && !p.Crashed() {
			continue // standby healthy
		}
		if err := r.d.ProvisionSpare(cell); err == nil {
			r.event("cell %d standby reprovisioned on spare server %d", cell, spare)
		}
	}
}

func (r *runner) execMigrate(cell uint16) {
	boundary, err := r.d.PlannedMigrationOf(cell)
	if err != nil {
		r.event("cell %d planned migration refused (%v)", cell, err)
		return
	}
	r.rec.EmitLabeled(trace.KindChaosFault, "migrate", 0, cell, 0, boundary, 0)
	r.event("cell %d planned migration armed at slot %d", cell, boundary)
}

// execRogueSlot replays a stale slot indication into the L2-side Orion
// tap, deliberately violating TTI monotonicity — a deterministic drill
// for the invariant checker and its flight recorder (never drawn by the
// stock profiles).
func (r *runner) execRogueSlot(cell uint16) {
	slot := uint64(r.eng.Now() / phy.TTI)
	if slot > 10 {
		slot -= 10
	}
	r.rec.EmitLabeled(trace.KindChaosFault, "rogue-slot", 0, cell, 0, slot, 0)
	r.event("cell %d rogue stale slot indication replayed (slot %d)", cell, slot)
	if tap := r.d.L2Orion.ToL2; tap != nil {
		tap(&fapi.SlotIndication{CellID: cell, Slot: slot})
	}
}

func (r *runner) execUpgrade() {
	if _, err := r.d.UpgradeL2(true); err != nil {
		r.event("l2 upgrade failed (%v)", err)
		return
	}
	// UpgradeL2 rewires the Orion→L2 tap to the fresh process, which
	// removes the checker's wrap; re-arm it.
	r.chk.TapL2()
	r.rec.EmitLabeled(trace.KindChaosFault, "l2-upgrade", 0, 0, 0, 0, 0)
	r.event("l2 upgraded in place, state preserved")
}

// execGlitch stops a cell's RU slot clock for GlitchSlots slots (an RU
// firmware hiccup); downlink reception keeps working, only UL collection
// and status packets pause.
func (r *runner) execGlitch(cell uint16) {
	radio := r.d.RUs[cell]
	dur := sim.Time(r.p.GlitchSlots) * phy.TTI
	radio.Stop()
	r.rec.EmitLabeled(trace.KindChaosFault, "ru-glitch", 0, cell, 0, uint64(r.p.GlitchSlots), 0)
	r.event("cell %d RU glitch: slot clock stopped for %d slots", cell, r.p.GlitchSlots)
	r.eng.After(dur, "chaos.glitch-end", func() {
		radio.Start()
		r.event("cell %d RU glitch over, slot clock resumed", cell)
	})
}

func (r *runner) finalize() *Report {
	rep := r.rep
	rep.Violations = r.chk.Violations()
	rep.TotalViolations = r.chk.Total
	rep.Flight = r.chk.Flight()
	rep.Migrations = len(r.d.Switch.MigrationLog)
	rep.Detections = len(r.d.Switch.DetectionLog)
	for _, cell := range r.cells {
		rep.Dropped = append(rep.Dropped, CellDrop{Cell: cell, Dropped: r.chk.DroppedTTIs(cell)})
	}
	for _, id := range r.ues {
		ul, dl := r.chk.Delivered(id)
		rep.Flows = append(rep.Flows, FlowStat{UE: id, UL: ul, DL: dl})
	}
	rep.Finalize()
	return rep
}
