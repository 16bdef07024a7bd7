// Package ru models the radio unit: the cell-site hardware that converts
// between over-the-air signals and O-RAN split-7.2x fronthaul packets. The
// RU is deliberately dumb (as commercial RUs are, §9): it beams whatever
// downlink IQ arrives, samples the uplink every UL slot, and addresses all
// fronthaul to a virtual PHY address that the in-switch middlebox resolves
// to the current primary PHY (§5.1).
package ru

import (
	"slingshot/internal/fapi"
	"slingshot/internal/fronthaul"
	"slingshot/internal/mem"
	"slingshot/internal/netmodel"
	"slingshot/internal/par"
	"slingshot/internal/phy"
	"slingshot/internal/sim"
)

// AttachedUE is the over-the-air contract between the RU and a UE. The ue
// package's UE implements it.
type AttachedUE interface {
	ID() uint16
	// DeliverControl hands the slot's C-plane sections to the UE. secs is
	// the RU's reused decode buffer, valid only during the call.
	DeliverControl(absSlot uint64, secs []fronthaul.Section)
	// DeliverDownlink hands a DL U-plane packet to the UE. The packet and
	// the bytes its Payload and Aux alias are the RU's, valid only during
	// the call.
	DeliverDownlink(absSlot uint64, pkt *fronthaul.Packet)
	// PullUplink asks the UE for its granted uplink transmission. iq holds
	// whole PRBs (a multiple of 12 samples) in a mem.GetComplexCap lease
	// that becomes the RU's to return; aux stays the UE's, valid until the
	// slot's collection returns. The RU calls it for different UEs from
	// different goroutines at once, so an implementation may touch only its
	// own UE's state and concurrency-safe pools: no Engine scheduling, no
	// trace emission, nothing shared between UEs.
	PullUplink(absSlot uint64) (iq []complex128, aux []byte, ok bool)
	// CollectUCI drains the UE's pending control reports, appending them to
	// dst.
	CollectUCI(dst []fapi.UCI) []fapi.UCI
}

// Config parameterizes an RU.
type Config struct {
	Cell uint16
	// MantissaBits is the fronthaul BFP width.
	MantissaBits int
	// ULOffset is when within a slot uplink U-plane packets leave.
	ULOffset sim.Time
	// StatusOffset is when the per-slot UL C-plane status packet leaves.
	StatusOffset sim.Time
}

// DefaultConfig returns the standard RU configuration.
func DefaultConfig(cell uint16) Config {
	return Config{
		Cell:         cell,
		MantissaBits: 9,
		ULOffset:     60 * sim.Microsecond,
		StatusOffset: 200 * sim.Microsecond,
	}
}

// Stats counts RU activity.
type Stats struct {
	DLControlRx uint64
	DLDataRx    uint64
	ULDataTx    uint64
	StatusTx    uint64
	DecodeErr   uint64
}

// RU is one radio unit.
type RU struct {
	Cfg    Config
	Engine *sim.Engine
	Addr   netmodel.Addr
	Stats  Stats

	// SendFronthaul transmits towards the switch.
	SendFronthaul func(*netmodel.Frame)

	ues       []AttachedUE
	seq       uint8
	stopClock func()
	lastDL    sim.Time
	everDL    bool
	txFn      func(any) // long-lived transmit callback for AfterArg events

	// Per-slot staging, recycled across slots: the status packet's report
	// list and collectUplink's per-UE packets (index i is r.ues[i]'s, nil
	// for a silent UE).
	uciBuf []fapi.UCI
	ulPkts []*fronthaul.Packet

	// Receive staging, reused across frames: handleFrame decodes each
	// downlink packet into rx and its C-plane sections into secs. rx is a
	// field, not a local, because DeliverDownlink is an interface call the
	// compiler cannot prove keeps no reference. HandleFrame zeroes rx
	// before the frame is released, so no alias into a pooled wire buffer
	// outlives the frame.
	rx   fronthaul.Packet
	secs []fronthaul.Section
}

// New creates an RU.
func New(e *sim.Engine, cfg Config) *RU {
	if cfg.MantissaBits == 0 {
		cfg.MantissaBits = 9
	}
	return &RU{Cfg: cfg, Engine: e, Addr: netmodel.RUAddr(cfg.Cell)}
}

// AddUE registers a UE in the cell's radio range.
func (r *RU) AddUE(u AttachedUE) { r.ues = append(r.ues, u) }

// Start begins the RU's slot clock at the next slot boundary.
func (r *RU) Start() {
	if r.stopClock != nil {
		return
	}
	now := r.Engine.Now()
	next := (now + phy.TTI - 1) / phy.TTI * phy.TTI
	r.stopClock = r.Engine.Every(next-now, phy.TTI, "ru.slot", r.onSlot)
}

// Stop halts the RU (teardown).
func (r *RU) Stop() {
	if r.stopClock != nil {
		r.stopClock()
		r.stopClock = nil
	}
}

func (r *RU) onSlot() {
	slot := phy.SlotAt(r.Engine.Now())
	// Per-slot UL C-plane status packet: carries the UEs' UCI reports and
	// doubles as the RU-side packet stream the switch's migration-request
	// matching needs every slot (§5.1).
	r.sendStatus(slot)
	if phy.KindOf(slot) == phy.SlotUL {
		r.collectUplink(slot)
	}
}

func (r *RU) sendStatus(slot uint64) {
	reports := r.uciBuf[:0]
	for _, u := range r.ues {
		reports = u.CollectUCI(reports)
	}
	r.uciBuf = reports
	pkt := fronthaul.NewControl(r.Cfg.Cell, r.seq, fronthaul.Uplink,
		fronthaul.SlotFromCounter(slot), 0)
	r.seq++
	pkt.Aux = fapi.EncodeUCIListPooled(reports)
	r.transmit(r.Cfg.StatusOffset, pkt, 0)
	// transmit serialized the packet onto the wire synchronously, so both
	// the leased Aux buffer and the packet struct are free again.
	mem.PutBytes(pkt.Aux)
	pkt.Recycle()
	r.Stats.StatusTx++
}

// minParallelUEs is the attached-UE count below which collectUplink skips
// the worker pool. A parked worker joins a batch only some 30 UEs' worth of
// synthesis after it is sent for, so a smaller cell would pay for the
// wake-up and do all the work on the caller anyway (DESIGN.md §8).
const minParallelUEs = 32

// collectUplink samples the slot's uplink as a slot batch of the same
// shape as phy.transmitDL (less its leading phase: there are no shared RNG
// draws to fix first). Each UE owns everything its transmission depends on
// (channel stream, RLC, HARQ-TX map, codec, stats), so the synthesis fans
// out on the worker pool with results landing by UE index; everything
// shared — r.seq, r.Stats, Engine scheduling — waits for the sequential
// phase, which walks r.ues in order exactly as the serial loop did.
func (r *RU) collectUplink(slot uint64) {
	if cap(r.ulPkts) < len(r.ues) {
		r.ulPkts = make([]*fronthaul.Packet, len(r.ues))
	}
	r.ulPkts = r.ulPkts[:len(r.ues)]
	if len(r.ues) < minParallelUEs {
		for i := range r.ues {
			r.synthesize(i, slot)
		}
	} else {
		par.ForEach(len(r.ues), func(i int) { r.synthesize(i, slot) })
	}

	for i, pkt := range r.ulPkts {
		if pkt == nil {
			continue
		}
		r.ulPkts[i] = nil
		pkt.Seq = r.seq
		r.seq++
		// Virtual size: a full-carrier UL slot's IQ share for this UE.
		r.transmit(r.Cfg.ULOffset, pkt, len(pkt.Payload)*4)
		// The wire copy is done; recycle the BFP payload and the packet
		// struct. Aux is the UE's HARQ buffer — not the RU's to free.
		mem.PutBytes(pkt.Payload)
		pkt.Recycle()
		r.Stats.ULDataTx++
	}
}

// synthesize is collectUplink's parallel phase for r.ues[i]: the UE builds
// its block into an IQ lease, which is compressed into the packet's payload
// lease and returned to the pool before the worker moves on. It writes only
// r.ulPkts[i].
func (r *RU) synthesize(i int, slot uint64) {
	u := r.ues[i]
	iq, aux, ok := u.PullUplink(slot)
	if !ok {
		return
	}
	pkt, err := fronthaul.NewUplinkIQ(r.Cfg.Cell, 0,
		fronthaul.SlotFromCounter(slot), 0, 0, iq, r.Cfg.MantissaBits)
	mem.PutComplex(iq)
	if err != nil {
		return
	}
	pkt.Section = u.ID()
	pkt.Aux = aux
	r.ulPkts[i] = pkt
}

// transmit ships a fronthaul packet to the virtual PHY address after an
// intra-slot offset.
func (r *RU) transmit(offset sim.Time, pkt *fronthaul.Packet, virtual int) {
	frame := netmodel.GetFrame()
	frame.Src = r.Addr
	frame.Dst = netmodel.VirtualPHYAddr(r.Cfg.Cell)
	frame.Type = netmodel.EtherTypeECPRI
	frame.Payload = pkt.SerializePooled()
	frame.Virtual = virtual
	if r.txFn == nil {
		r.txFn = func(a any) {
			f := a.(*netmodel.Frame)
			if r.SendFronthaul != nil {
				r.SendFronthaul(f)
			} else {
				netmodel.ReleaseFrame(f)
			}
		}
	}
	r.Engine.AfterArg(offset, "ru.fh-tx", r.txFn, frame)
}

// HandleFrame receives downlink fronthaul from the switch and beams it to
// the UEs. The RU is the frame's terminal consumer: the packet is decoded
// into r.rx (its Payload and Aux alias the wire buffer) and the sections
// into r.secs, the UEs copy what they keep synchronously, and r.rx is
// cleared before the frame and its wire buffer go back to the pool.
func (r *RU) HandleFrame(f *netmodel.Frame) {
	r.handleFrame(f)
	r.rx = fronthaul.Packet{}
	netmodel.ReleaseFrame(f)
}

func (r *RU) handleFrame(f *netmodel.Frame) {
	if f.Type != netmodel.EtherTypeECPRI {
		return
	}
	pkt := &r.rx
	if err := pkt.DecodeFrom(f.Payload); err != nil {
		r.Stats.DecodeErr++
		return
	}
	if pkt.Dir != fronthaul.Downlink {
		return
	}
	r.lastDL = r.Engine.Now()
	r.everDL = true
	// Resolve the wrapped slot id against the current time: the RU is
	// PTP-synchronized, so the packet's slot is within a wrap period of
	// now.
	abs := resolveSlot(pkt.Slot, phy.SlotAt(r.Engine.Now()))
	switch pkt.Type {
	case fronthaul.MsgRTControl:
		r.Stats.DLControlRx++
		secs, err := fronthaul.AppendDecodeSections(r.secs[:0], pkt.Payload)
		if err != nil {
			r.Stats.DecodeErr++
			return
		}
		r.secs = secs
		for _, u := range r.ues {
			u.DeliverControl(abs, secs)
		}
	case fronthaul.MsgIQData:
		r.Stats.DLDataRx++
		for _, u := range r.ues {
			if u.ID() == pkt.Section {
				u.DeliverDownlink(abs, pkt)
			}
		}
	}
}

// Alive reports whether the cell received downlink fronthaul within the
// given window — the signal a searching UE locks onto.
func (r *RU) Alive(window sim.Time) bool {
	return r.everDL && r.Engine.Now()-r.lastDL <= window
}

// resolveSlot maps a wrapped SlotID to the absolute slot nearest to now.
// The candidate set lives in a fixed array: this runs once per received
// fronthaul packet and must not allocate.
func resolveSlot(sid fronthaul.SlotID, nowSlot uint64) uint64 {
	base := nowSlot - nowSlot%fronthaul.SlotWrap
	idx := sid.Index()
	var candidates [3]uint64
	n := 0
	candidates[n] = base + idx
	n++
	if base >= fronthaul.SlotWrap {
		candidates[n] = base - fronthaul.SlotWrap + idx
		n++
	}
	candidates[n] = base + fronthaul.SlotWrap + idx
	n++
	best := candidates[0]
	bestDist := dist(best, nowSlot)
	for _, c := range candidates[1:n] {
		if d := dist(c, nowSlot); d < bestDist {
			best, bestDist = c, d
		}
	}
	return best
}

func dist(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}
