package shard

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"slingshot/internal/ckpt/wire"
)

// SnapshotTo writes the whole fleet's state at a lockstep barrier as
// named sections: controller ledgers, the mailbox in canonical (At, Src,
// Seq) order, then one section per cell wrapping its deployment, checker
// and fleet-side stats. Callers must only invoke this between Step calls
// — that is the one moment cell outboxes are empty and no engine is
// mid-event. Message payloads fold in as digests so the snapshot never
// retains pooled buffers.
func (f *Fleet) SnapshotTo(w *wire.W) {
	w.Section("fleet", func(w *wire.W) {
		w.I64(int64(f.now))
		w.U64(f.ctlSeq)
		w.U32(uint32(f.grantsLocal))
		w.U32(uint32(f.grantsCross))
		w.U32(uint32(f.denials))
		w.U32(uint32(f.dupReqs))
		w.U32(uint32(f.released))
		w.U32(uint32(f.migPosted))
		w.U32(uint32(f.upgPosted))
		w.U64(f.partDefer)
		w.U64(f.partDrop)
		w.U64(f.exchanged)
		w.U32(uint32(f.overflow))
		w.U32(uint32(len(f.zoneSpares)))
		for _, n := range f.zoneSpares {
			w.U32(uint32(n))
		}
		for _, zs := range [][]int{f.zGrantL, f.zGrantX, f.zDeny} {
			w.U32(uint32(len(zs)))
			for _, n := range zs {
				w.U32(uint32(n))
			}
		}
		cells := make([]int, 0, len(f.granted))
		for id, on := range f.granted {
			if on {
				cells = append(cells, int(id))
			}
		}
		sort.Ints(cells)
		w.U32(uint32(len(cells)))
		for _, id := range cells {
			w.U16(uint16(id))
		}
		w.U32(uint32(len(f.faults)))
		for _, fl := range f.faults {
			w.Str(fl)
		}
	})
	w.Section("mailbox", func(w *wire.W) {
		msgs := make([]Message, len(f.mbox.h))
		copy(msgs, f.mbox.h)
		// Stable: Post tolerates duplicate (At, Src, Seq) keys, which
		// the fleet never produces; should one appear, the image keeps
		// the heap's order rather than the sort's.
		slices.SortStableFunc(msgs, func(a, b Message) int {
			return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Src, b.Src), cmp.Compare(a.Seq, b.Seq))
		})
		w.U32(uint32(len(msgs)))
		for _, m := range msgs {
			w.I64(int64(m.At))
			w.U16(m.Src)
			w.U16(m.Dst)
			w.U64(m.Seq)
			w.U8(uint8(m.Kind))
			w.U64(m.A)
			w.U64(m.B)
			w.U32(uint32(len(m.Payload)))
			w.U64(wire.Hash64(m.Payload))
		}
	})
	for _, cs := range f.cells {
		cs := cs
		w.Section(fmt.Sprintf("cell.%d", cs.idx), func(w *wire.W) {
			w.U64(cs.msgSeq)
			w.U32(uint32(cs.attempts))
			w.U32(uint32(len(cs.out))) // 0 at a barrier, by construction
			st := &cs.stat
			w.U64(st.UL)
			w.U64(st.DL)
			w.U64(st.BackhaulRx)
			w.U64(st.HandoverRx)
			w.U64(st.Digest)
			w.U32(uint32(st.Violations))
			w.U32(uint32(st.Retries))
			w.U32(uint32(st.UpgSkipped))
			w.Bool(st.Killed)
			w.Bool(st.SpareOK)
			w.Bool(st.CrossSpare)
			w.Bool(st.Upgraded)
			w.U32(uint32(len(cs.ulSeq)))
			for _, s := range cs.ulSeq {
				w.U64(s)
			}
			for _, s := range cs.dlSeq {
				w.U64(s)
			}
			if cs.rec != nil {
				w.U64(cs.rec.Total())
				w.U64(cs.rec.Metrics().Fingerprint())
			} else {
				w.U64(0)
				w.U64(0)
			}
			w.Section("checker", cs.chk.SnapshotTo)
			w.Section("deploy", cs.d.SnapshotTo)
		})
	}
}
