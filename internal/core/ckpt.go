package core

import (
	"fmt"

	"slingshot/internal/ckpt/wire"
)

// SnapshotTo writes the whole deployment's state as named sections, one
// per component, in canonical (sorted-id) order. The engine section pins
// the clock, next event sequence and the pending-queue identities — event
// closures themselves are reconstructed by deterministic replay, and this
// section is what proves replay reached the same schedule (internal/ckpt).
func (d *Deployment) SnapshotTo(w *wire.W) {
	w.Section("engine", func(w *wire.W) {
		w.I64(int64(d.Engine.Now()))
		w.U64(d.Engine.NextSeq())
		w.U64(d.Engine.Processed)
		q := d.Engine.QueueSnapshot()
		w.U32(uint32(len(q)))
		for _, ev := range q {
			w.I64(int64(ev.At))
			w.U64(ev.Seq)
			w.Str(ev.Name)
			w.Bool(false) // retired cancel flag; kept until the image format changes
		}
	})
	w.Section("rng", func(w *wire.W) {
		for _, v := range d.RNG.State() {
			w.U64(v)
		}
	})
	w.Section("switch", d.Switch.SnapshotTo)
	if d.L2 != nil {
		w.Section("l2", d.L2.SnapshotTo)
	}
	if d.backupL2 != nil {
		w.Section("l2.backup", d.backupL2.SnapshotTo)
	}
	if d.L2Orion != nil {
		w.Section("orion.l2", d.L2Orion.SnapshotTo)
	}
	for _, server := range d.phyOrder() {
		w.Section(fmt.Sprintf("phy.s%d", server), d.PHYs[server].SnapshotTo)
		if o := d.Orions[server]; o != nil {
			w.Section(fmt.Sprintf("orion.s%d", server), o.SnapshotTo)
		}
	}
	for _, cellID := range d.cellOrder() {
		w.Section(fmt.Sprintf("ru.c%d", cellID), d.RUs[cellID].SnapshotTo)
	}
	for _, id := range d.ueOrder() {
		w.Section(fmt.Sprintf("ue.%d", id), d.UEs[id].SnapshotTo)
	}
}
