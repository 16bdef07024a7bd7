package chaos

import (
	"cmp"
	"slices"
	"sort"

	"slingshot/internal/ckpt/wire"
	"slingshot/internal/sim"
)

// SnapshotTo writes the checker's cross-layer watch state: violation
// totals, the flight-recorder dump (if one latched), and every per-cell /
// per-HARQ cursor map in sorted key order. Restoring a run must land the
// checker on identical cursors or later violations would differ between
// the restored and the straight run.
func (c *Checker) SnapshotTo(w *wire.W) {
	w.U32(uint32(c.Total))
	w.U32(uint32(len(c.violations)))
	for _, v := range c.violations {
		w.Str(v.Invariant)
		w.I64(int64(v.At))
		w.Str(v.Detail)
	}
	w.Str(c.flight)

	snapCellU64(w, c.lastSlotInd)
	snapCellI64(w, c.lastFailover)
	snapCellU64(w, c.droppedTTIs)
	snapCellU64(w, c.ulLast)
	snapCellU64(w, c.dlLast)
	snapCellU64(w, c.ulCount)
	snapCellU64(w, c.dlCount)

	hkeys := make([]harqKey, 0, len(c.harqBuf))
	for k := range c.harqBuf {
		hkeys = append(hkeys, k)
	}
	slices.SortFunc(hkeys, func(a, b harqKey) int {
		return cmp.Or(
			cmp.Compare(a.server, b.server),
			cmp.Compare(a.cell, b.cell),
			cmp.Compare(a.ue, b.ue),
			cmp.Compare(a.proc, b.proc),
		)
	})
	w.U32(uint32(len(hkeys)))
	for _, k := range hkeys {
		w.U8(k.server)
		w.U16(k.cell)
		w.U16(k.ue)
		w.U8(k.proc)
		w.U64(c.harqBuf[k])
	}

	servers := make([]int, 0, len(c.ruServing))
	for ru := range c.ruServing {
		servers = append(servers, int(ru))
	}
	sort.Ints(servers)
	w.U32(uint32(len(servers)))
	for _, ru := range servers {
		w.U8(uint8(ru))
		w.U8(c.ruServing[uint8(ru)])
	}
}

func snapCellU64(w *wire.W, m map[uint16]uint64) {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	w.U32(uint32(len(ids)))
	for _, id := range ids {
		w.U16(uint16(id))
		w.U64(m[uint16(id)])
	}
}

func snapCellI64(w *wire.W, m map[uint16]sim.Time) {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	w.U32(uint32(len(ids)))
	for _, id := range ids {
		w.U16(uint16(id))
		w.I64(int64(m[uint16(id)]))
	}
}
