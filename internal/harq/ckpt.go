package harq

import (
	"cmp"
	"slices"

	"slingshot/internal/ckpt/wire"
)

// SnapshotTo writes the pool's full soft-buffer state in canonical order
// (sorted by (UE, process)). LLR contents are folded in as an FNV digest
// plus length rather than raw floats: divergence-sensitive but compact,
// and the digest is computed immediately so no pooled memory is retained.
func (p *Pool) SnapshotTo(w *wire.W) {
	keys := make([]key, 0, len(p.buffers))
	for k := range p.buffers {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b key) int {
		return cmp.Or(cmp.Compare(a.ue, b.ue), cmp.Compare(a.proc, b.proc))
	})
	w.U64(p.Combined)
	w.U64(p.Interrupted)
	w.U32(uint32(len(keys)))
	for _, k := range keys {
		b := p.buffers[k]
		w.U16(k.ue)
		w.U8(k.proc)
		w.Bool(b.Active)
		w.U32(uint32(b.TxCount))
		w.U32(uint32(len(b.LLR)))
		h := wire.HashInit
		for _, v := range b.LLR {
			h = wire.HashF64(h, v)
		}
		w.U64(h)
	}
}

// SnapshotTo writes the filter's EMA state.
func (f *SNRFilter) SnapshotTo(w *wire.W) {
	w.F64(f.Alpha)
	w.F64(f.value)
	w.Bool(f.primed)
}
