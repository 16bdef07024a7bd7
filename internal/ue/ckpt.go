package ue

import (
	"sort"

	"slingshot/internal/ckpt/wire"
	"slingshot/internal/fronthaul"
)

// SnapshotTo writes the UE's full state: RRC machine, radio channel, RNG
// point, RLC bearers, both HARQ directions, and the grant/assignment
// lookahead rings in ascending-slot order. Parked HARQ TX buffers fold in as
// digests so pool-leased memory is never retained.
func (u *UE) SnapshotTo(w *wire.W) {
	s := &u.Stats
	w.U64(s.ULBlocksSent)
	w.U64(s.DLBlocksOK)
	w.U64(s.DLBlocksFail)
	w.U64(s.RLFs)
	w.U64(s.Attaches)
	w.U64(s.PacketsUp)
	w.U64(s.PacketsDown)
	w.U64(s.BytesDelivered)
	w.U8(uint8(u.state))
	w.I64(int64(u.lastSync))
	w.Bool(u.everSynced)
	w.U64(u.lastAdvSlot)
	w.I64(int64(u.gapSince))
	for _, v := range u.rng.State() {
		w.U64(v)
	}
	u.Channel.SnapshotTo(w)
	u.cqi.SnapshotTo(w)
	u.ulTx.SnapshotTo(w)
	u.dlRx.SnapshotTo(w)
	u.harqDL.SnapshotTo(w)

	procs := make([]int, 0, len(u.harqTx))
	for p := range u.harqTx {
		procs = append(procs, int(p))
	}
	sort.Ints(procs)
	w.U32(uint32(len(procs)))
	for _, p := range procs {
		tb := u.harqTx[uint8(p)]
		w.U8(uint8(p))
		w.U32(uint32(len(tb)))
		w.U64(wire.Hash64(tb))
	}

	w.U32(uint32(u.grants.Len()))
	for _, slot := range u.grants.Slots() {
		w.U64(slot)
		sec, _ := u.grants.Get(slot)
		snapSection(w, sec)
	}

	w.U32(uint32(u.dlAssig.Len()))
	for _, slot := range u.dlAssig.Slots() {
		w.U64(slot)
		secs, _ := u.dlAssig.Get(slot)
		w.U32(uint32(len(secs)))
		for _, sec := range secs {
			snapSection(w, sec)
		}
	}

	w.U32(uint32(len(u.uciQ)))
	for _, uci := range u.uciQ {
		w.U16(uci.UEID)
		w.U8(uci.HARQID)
		w.Bool(uci.HasFeedback)
		w.Bool(uci.ACK)
		w.F64(float64(uci.CQIdB))
	}
}

func snapSection(w *wire.W, s fronthaul.Section) {
	w.U16(s.UEID)
	w.U8(uint8(s.Dir))
	w.U16(s.StartPRB)
	w.U16(s.NumPRB)
	w.U8(s.ModBits)
	w.U8(s.HARQID)
	w.U8(s.Rv)
	w.Bool(s.NewData)
	w.U32(s.TBBytes)
	w.U64(s.GrantSlot)
}
