// Package ue models user equipment: the device-side PHY/MAC (sampled-
// fidelity codec, downlink HARQ soft buffers, uplink grant handling, UCI
// feedback), the RRC connectivity state machine with the radio-link-
// failure timer, and the multi-second reattach procedure that dominates
// outage time in the paper's no-Slingshot baseline (§8.1: 6.2 s).
package ue

import (
	"slingshot/internal/dsp"
	"slingshot/internal/fapi"
	"slingshot/internal/fronthaul"
	"slingshot/internal/harq"
	"slingshot/internal/mem"
	"slingshot/internal/phy"
	"slingshot/internal/rlc"
	"slingshot/internal/sim"
)

// State is the UE's RRC connectivity state.
type State uint8

// UE states.
const (
	StateIdle State = iota
	StateConnected
	StateDetached // radio link failure declared; reattach in progress
)

func (s State) String() string {
	switch s {
	case StateConnected:
		return "connected"
	case StateDetached:
		return "detached"
	default:
		return "idle"
	}
}

// Config parameterizes a UE.
type Config struct {
	ID   uint16
	Cell uint16
	Name string

	// Channel statistics.
	MeanSNRdB float64
	FadeStd   float64
	FadeCorr  float64

	// RLFTimeout is how long without downlink sync before the UE declares
	// radio link failure (50 ms in the paper's setup, §2.4).
	RLFTimeout sim.Time
	// ReattachDelay is the mean full-reattach duration after RLF: cell
	// search, RRC connection, registration with the core (6.2 s measured
	// in §8.1).
	ReattachDelay sim.Time
	// ReattachJitter randomizes the reattach duration.
	ReattachJitter sim.Time
	// CQIPeriodSlots is how often a CQI-only UCI report is queued.
	CQIPeriodSlots uint64
}

// DefaultConfig returns a UE with the paper's timing constants.
func DefaultConfig(id, cell uint16, name string, snr float64) Config {
	return Config{
		ID: id, Cell: cell, Name: name,
		MeanSNRdB: snr, FadeStd: 1.5, FadeCorr: 0.97,
		RLFTimeout:     50 * sim.Millisecond,
		ReattachDelay:  6200 * sim.Millisecond,
		ReattachJitter: 400 * sim.Millisecond,
		CQIPeriodSlots: 10,
	}
}

// Stats counts UE-side events.
type Stats struct {
	ULBlocksSent   uint64
	DLBlocksOK     uint64
	DLBlocksFail   uint64
	RLFs           uint64
	Attaches       uint64
	PacketsUp      uint64
	PacketsDown    uint64
	BytesDelivered uint64
}

// UE is one device.
type UE struct {
	Cfg     Config
	Engine  *sim.Engine
	Channel *dsp.Channel
	Stats   Stats

	// OnDownlink receives in-order upper-layer packets.
	OnDownlink func(pkt []byte)
	// OnStateChange observes RRC transitions.
	OnStateChange func(State)
	// TryAttach is the deployment hook: it must register the UE with the
	// serving L2 and return success. Called during reattach attempts.
	TryAttach func(u *UE) bool

	state      State
	codec      *phy.Codec
	lastSync   sim.Time
	everSynced bool

	ulTx   *rlc.Tx
	dlRx   *rlc.Rx
	harqDL *harq.Pool
	harqTx map[uint8][]byte

	grants  phy.SlotRing[fronthaul.Section]
	dlAssig phy.SlotRing[[]fronthaul.Section]
	uciQ    []fapi.UCI
	cqi     harq.SNRFilter
	// dlIQ is DeliverDownlink's receive scratch: a packet's IQ is
	// decompressed into it and passed through the channel in place. It never
	// leaves the UE, and nothing reads it after the block is decoded.
	dlIQ []complex128

	lastAdvSlot uint64
	gapSince    sim.Time

	rng       *sim.RNG
	stopTimer func()
}

// New creates a UE with its own channel and RNG stream.
func New(e *sim.Engine, cfg Config, rng *sim.RNG) *UE {
	u := &UE{
		Cfg:    cfg,
		Engine: e,
		rng:    rng,
	}
	u.Channel = dsp.NewChannel(cfg.MeanSNRdB, cfg.FadeStd, cfg.FadeCorr, rng.Fork(uint64(cfg.ID)+1))
	u.resetBearers()
	return u
}

// SetCellParams configures the codec from the cell's broadcast parameters
// (seed and BFP width). The deployment calls this at onboarding.
func (u *UE) SetCellParams(seed uint64, mantissa int) {
	u.codec = phy.NewCodec(0, 0, mantissa, seed)
}

func (u *UE) resetBearers() {
	u.ulTx = rlc.NewTx()
	u.dlRx = rlc.NewRx()
	u.harqDL = harq.NewPool()
	// HARQ TX buffers are pool-leased in PullUplink; a bearer reset is the
	// other exit point for buffers still parked in the map.
	for _, tb := range u.harqTx {
		mem.PutBytes(tb)
	}
	u.harqTx = make(map[uint8][]byte)
	u.grants = phy.SlotRing[fronthaul.Section]{}
	u.dlAssig = phy.SlotRing[[]fronthaul.Section]{}
	u.uciQ = u.uciQ[:0]
}

// Attach connects the UE immediately (initial deployment bring-up).
func (u *UE) Attach() {
	u.setState(StateConnected)
	u.Stats.Attaches++
	u.lastSync = u.Engine.Now()
	u.everSynced = true
	u.startSupervision()
}

// State returns the UE's RRC state.
func (u *UE) State() State { return u.state }

// Connected reports whether the UE is attached and in sync.
func (u *UE) Connected() bool { return u.state == StateConnected }

func (u *UE) setState(s State) {
	if u.state == s {
		return
	}
	u.state = s
	if u.OnStateChange != nil {
		u.OnStateChange(s)
	}
}

// startSupervision runs the RLF timer and the RLC reassembly timer.
func (u *UE) startSupervision() {
	if u.stopTimer != nil {
		return
	}
	u.stopTimer = u.Engine.Every(5*sim.Millisecond, 5*sim.Millisecond, "ue.supervise", u.supervise)
}

// Stop halts the UE's timers (simulation teardown).
func (u *UE) Stop() {
	if u.stopTimer != nil {
		u.stopTimer()
		u.stopTimer = nil
	}
}

func (u *UE) supervise() {
	now := u.Engine.Now()
	if u.state == StateConnected && now-u.lastSync > u.Cfg.RLFTimeout {
		u.declareRLF()
		return
	}
	// RLC reassembly timeout: a head-of-line gap older than 40 ms is
	// abandoned so later packets flow. The window exceeds the MAC's
	// HARQ feedback timeout plus a retransmission round, so a TB lost to
	// a dead PHY normally arrives via HARQ retx before the gap is
	// discarded.
	if u.dlRx.HasGap() {
		if u.gapSince == 0 {
			u.gapSince = now
		} else if now-u.gapSince > 40*sim.Millisecond {
			u.deliverPackets(u.dlRx.SkipGap())
			u.gapSince = 0
		}
	} else {
		u.gapSince = 0
	}
}

// declareRLF drops the connection and begins the reattach procedure.
func (u *UE) declareRLF() {
	u.Stats.RLFs++
	u.setState(StateDetached)
	u.resetBearers()
	delay := u.Cfg.ReattachDelay
	if u.Cfg.ReattachJitter > 0 {
		delay += sim.Time(u.rng.Jitter(float64(u.Cfg.ReattachJitter)))
	}
	u.Engine.After(delay, "ue.reattach", u.tryReattach)
}

func (u *UE) tryReattach() {
	if u.state != StateDetached {
		return
	}
	if u.TryAttach != nil && u.TryAttach(u) {
		u.Stats.Attaches++
		u.setState(StateConnected)
		u.lastSync = u.Engine.Now()
		return
	}
	// Cell not ready; retry shortly (cell-search cadence).
	u.Engine.After(200*sim.Millisecond, "ue.reattach-retry", u.tryReattach)
}

// advanceChannel evolves fading once per slot.
func (u *UE) advanceChannel(slot uint64) {
	for u.lastAdvSlot < slot {
		u.Channel.Advance()
		u.lastAdvSlot++
	}
}

// SendUplink enqueues an upper-layer packet for uplink transmission.
func (u *UE) SendUplink(pkt []byte) {
	if u.state != StateConnected {
		return // no radio bearer
	}
	u.Stats.PacketsUp++
	u.ulTx.Enqueue(pkt)
}

// ULBacklog returns queued uplink bytes.
func (u *UE) ULBacklog() int { return u.ulTx.Backlog() }

// ID returns the UE identifier (RU-facing interface).
func (u *UE) ID() uint16 { return u.Cfg.ID }

// DeliverControl receives the slot's C-plane sections over the air. Any
// downlink reception is a sync signal that feeds the RLF timer.
func (u *UE) DeliverControl(absSlot uint64, secs []fronthaul.Section) {
	u.lastSync = u.Engine.Now()
	u.everSynced = true
	if u.state != StateConnected {
		return
	}
	u.advanceChannel(absSlot)
	for _, s := range secs {
		if s.UEID != u.Cfg.ID {
			continue
		}
		if s.Dir == fronthaul.Uplink {
			u.grants.Put(s.GrantSlot, s)
		} else {
			// A slot may carry several DL PDUs for one UE (e.g. a HARQ
			// retransmission plus new data); keep them all and match
			// U-plane packets by allocation start PRB.
			assig, ok := u.dlAssig.Get(s.GrantSlot)
			if !ok {
				assig = u.dlAssig.Spare(s.GrantSlot)[:0]
			}
			u.dlAssig.Put(s.GrantSlot, append(assig, s))
		}
	}
	// Periodic CQI report.
	if u.Cfg.CQIPeriodSlots > 0 && absSlot%u.Cfg.CQIPeriodSlots == 0 && u.cqi.Primed() {
		u.uciQ = append(u.uciQ, fapi.UCI{UEID: u.Cfg.ID, CQIdB: float32(u.cqi.Value())})
	}
	// GC stale grants.
	if absSlot > 20 {
		u.grants.DeleteBefore(absSlot - 20)
		u.dlAssig.DeleteBefore(absSlot - 20)
	}
}

// DeliverDownlink receives a DL U-plane packet over the air: the UE passes
// the clean IQ through its own channel, runs the receive chain with its DL
// HARQ soft buffers, and queues ACK/NACK feedback.
func (u *UE) DeliverDownlink(absSlot uint64, pkt *fronthaul.Packet) {
	u.lastSync = u.Engine.Now()
	if u.state != StateConnected || u.codec == nil {
		return
	}
	if pkt.Section != u.Cfg.ID {
		return
	}
	var sec fronthaul.Section
	found := false
	assig, _ := u.dlAssig.Get(absSlot)
	for _, s := range assig {
		if s.StartPRB == pkt.StartPRB {
			sec = s
			found = true
			break
		}
	}
	if !found {
		return
	}
	u.advanceChannel(absSlot)
	iq, err := pkt.AppendIQ(u.dlIQ[:0])
	if err != nil {
		return
	}
	u.dlIQ = iq
	rx := u.Channel.TransmitInto(iq, iq)
	out := u.codec.DecodeBlock(rx, absSlot, u.Cfg.ID, dsp.Modulation(sec.ModBits),
		u.harqDL, sec.HARQID, sec.NewData, phy.DefaultFECIter)
	u.cqi.Observe(out.SNRdB)
	u.uciQ = append(u.uciQ, fapi.UCI{
		UEID: u.Cfg.ID, HARQID: sec.HARQID, HasFeedback: true, ACK: out.OK,
		CQIdB: float32(u.cqi.Value()),
	})
	if out.OK {
		u.Stats.DLBlocksOK++
		pkts, _ := u.dlRx.Ingest(pkt.Aux)
		u.deliverPackets(pkts)
	} else {
		u.Stats.DLBlocksFail++
	}
}

func (u *UE) deliverPackets(pkts [][]byte) {
	for _, p := range pkts {
		u.Stats.PacketsDown++
		u.Stats.BytesDelivered += uint64(len(p))
		if u.OnDownlink != nil {
			u.OnDownlink(p)
		}
	}
}

// PullUplink produces the UE's uplink transmission for a granted slot:
// channel-distorted block symbols, padded to whole PRBs, plus the sidecar
// transport-block bytes. ok is false when the UE has no grant (or is
// detached) — radio silence.
//
// iq is a mem.GetComplexCap lease that passes to the caller, who returns it
// with mem.PutComplex; aux stays the UE's HARQ buffer, valid until this
// UE's next PullUplink. The call touches only this UE's own state (grants,
// RLC, HARQ-TX map, channel stream, stats) and the concurrency-safe pools,
// so the RU may pull different UEs from different goroutines at once.
func (u *UE) PullUplink(absSlot uint64) (iq []complex128, aux []byte, ok bool) {
	if u.state != StateConnected || u.codec == nil {
		return nil, nil, false
	}
	sec, exists := u.grants.Delete(absSlot)
	if !exists {
		return nil, nil, false
	}
	u.advanceChannel(absSlot)

	var tb []byte
	if sec.NewData {
		if old, held := u.harqTx[sec.HARQID]; held {
			// The RU serialized the process's previous transmission onto
			// the wire before that slot's collection returned, so no alias
			// outlives it.
			mem.PutBytes(old)
		}
		tb = u.ulTx.AppendPDU(mem.GetBytesCap(int(sec.TBBytes)), int(sec.TBBytes))
		u.harqTx[sec.HARQID] = tb
	} else if stored, found := u.harqTx[sec.HARQID]; found {
		tb = stored
	} else {
		// Retransmission grant for a process we no longer have (e.g.
		// bearer reset); send fresh data instead.
		tb = u.ulTx.AppendPDU(mem.GetBytesCap(int(sec.TBBytes)), int(sec.TBBytes))
		u.harqTx[sec.HARQID] = tb
	}
	// Scrambling keys on the transmission slot. Descrambling happens
	// before HARQ combining on the receive side, so retransmissions under
	// different slot keys still combine coherently over the codeword.
	//
	// Encode, pad and channel all work in the one lease: it is sized for
	// the padded block so nothing grows, the pad writes explicit zeros over
	// whatever the lease held, and the channel runs in place.
	m := dsp.Modulation(sec.ModBits)
	iq = u.codec.AppendEncodeBlock(mem.GetComplexCap(u.codec.PaddedSymbolsPerBlock(m)),
		tb, absSlot, u.Cfg.ID, m)
	iq = phy.PadSymbols(iq)
	u.Stats.ULBlocksSent++
	return u.Channel.TransmitInto(iq, iq), tb, true
}

// CollectUCI drains the queued UCI reports by appending them to dst (the RU
// ships them on the UL C-plane every slot). The queue keeps its backing
// array for the next slot's reports.
func (u *UE) CollectUCI(dst []fapi.UCI) []fapi.UCI {
	dst = append(dst, u.uciQ...)
	u.uciQ = u.uciQ[:0]
	return dst
}

// LastSync returns the time of the last downlink reception.
func (u *UE) LastSync() sim.Time { return u.lastSync }

// ForceReattach models RRC re-establishment rejection: the network lost
// this UE's context (e.g. failover to a backup vRAN with no shared state),
// so the UE must run the full reattach procedure even though the cell is
// still broadcasting. This is what makes the paper's no-Slingshot baseline
// cost 6.2 s of downtime (§8.1).
func (u *UE) ForceReattach() {
	if u.state != StateConnected {
		return
	}
	u.declareRLF()
	// ForceReattach is a context loss, not a radio failure; the RLF
	// counter tracks radio-driven failures separately.
	u.Stats.RLFs--
}
