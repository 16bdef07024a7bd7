package phy

import (
	"slices"
	"sort"

	"slingshot/internal/ckpt/wire"
)

// SnapshotTo writes the PHY's full state at a TTI barrier: counters, the
// RNG point, and per-cell protocol state in sorted-cell order. Slot rings
// (configs, TX_DATA, pending uplink stages) are written as their slots in
// ring order, which is ascending, plus per-slot digests — at a barrier
// these hold only the pipeline lookahead, and digesting immediately means
// no pooled FAPI/IQ buffer is retained by the snapshot.
func (p *PHY) SnapshotTo(w *wire.W) {
	s := &p.Stats
	w.U64(s.SlotsProcessed)
	w.U64(s.NullSlots)
	w.U64(s.WorkUnits)
	w.U64(s.EncodedTBs)
	w.U64(s.DecodeOK)
	w.U64(s.DecodeFail)
	w.U64(s.HeartbeatsSent)
	w.U64(s.MissedConfigs)
	w.U64(s.FronthaulRx)
	w.U64(s.FronthaulTx)
	w.Bool(p.crashed)
	for _, v := range p.rng.State() {
		w.U64(v)
	}
	w.U32(uint32(len(p.cellOrder)))
	for _, id := range p.cellOrder {
		c := p.cells[id]
		w.U16(id)
		w.Bool(c.started)
		w.U32(uint32(c.iters))
		w.U8(c.seq)
		w.U32(uint32(c.missedConfigs))
		c.pool.SnapshotTo(w)

		ues := make([]int, 0, len(c.snr))
		for ue := range c.snr {
			ues = append(ues, int(ue))
		}
		sort.Ints(ues)
		w.U32(uint32(len(ues)))
		for _, ue := range ues {
			w.U16(uint16(ue))
			c.snr[uint16(ue)].SnapshotTo(w)
		}

		trains := make([]int, 0, len(c.mimoTrain))
		for ue := range c.mimoTrain {
			trains = append(trains, int(ue))
		}
		sort.Ints(trains)
		w.U32(uint32(len(trains)))
		for _, ue := range trains {
			w.U16(uint16(ue))
			w.U32(uint32(c.mimoTrain[uint16(ue)]))
		}

		snapSlotSet(w, &c.ulConfigs)
		snapSlotSet(w, &c.dlConfigs)
		snapSlotSet(w, &c.txData)
		snapPendingUL(w, &c.ulPending)
		snapULSeen(w, &c.ulPending)
		w.U32(uint32(len(c.grantQueue)))
	}
}

func snapSlotSet[T any](w *wire.W, r *SlotRing[T]) {
	w.U32(uint32(r.Len()))
	for _, slot := range r.Slots() {
		w.U64(slot)
	}
}

func snapPendingUL(w *wire.W, r *SlotRing[[]pendingUL]) {
	w.U32(uint32(r.Len()))
	for _, slot := range r.Slots() {
		w.U64(slot)
		blocks, _ := r.Get(slot)
		w.U32(uint32(len(blocks)))
		for i := range blocks {
			b := &blocks[i]
			w.U16(b.ue)
			w.U8(b.harq)
			w.Bool(b.newData)
			w.Bool(b.hadIQ)
			w.U64(b.tbHash)
			w.F64(b.snrAvg)
		}
	}
}

// snapULSeen writes, per pending slot, the UEs received in it in id order:
// the image's received-UE section, derived from the pending lists.
func snapULSeen(w *wire.W, r *SlotRing[[]pendingUL]) {
	w.U32(uint32(r.Len()))
	for _, slot := range r.Slots() {
		w.U64(slot)
		blocks, _ := r.Get(slot)
		ues := make([]uint16, len(blocks))
		for i := range blocks {
			ues[i] = blocks[i].ue
		}
		slices.Sort(ues)
		w.U32(uint32(len(ues)))
		for _, ue := range ues {
			w.U16(ue)
		}
	}
}
