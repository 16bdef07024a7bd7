package phy

import "math/bits"

// RingSlots is a SlotRing's capacity. It divides fronthaul.SlotWrap (5120),
// so a wrapped SlotID names exactly one cell, and it exceeds the live
// per-slot window: the 20-slot GC horizon plus the L2's 2-slot lead.
const RingSlots = 32

// SlotRing holds per-slot state for the slots of the live pipeline window
// in RingSlots cells indexed slot % RingSlots. Each cell stores its slot's
// tag, so a lookup is one indexed load plus a tag compare. A slot whose
// cell is claimed by a later slot is at least RingSlots old — past every
// GC horizon — and Put hands its value back for the caller to release,
// exactly as the slot GC would. A cell whose slot has ended keeps its value
// as storage for the next slot to reuse (Spare); only live slots are ever
// seen through Get, Lookup and Slots. The zero value is an empty ring.
type SlotRing[T any] struct {
	live uint32 // bit i: cell i holds slot tag[i]
	tag  [RingSlots]uint64
	val  [RingSlots]T
}

// Get returns slot's value, or the zero T and false when slot is not live.
func (r *SlotRing[T]) Get(slot uint64) (T, bool) {
	i := slot % RingSlots
	if r.live&(1<<i) == 0 || r.tag[i] != slot {
		var zero T
		return zero, false
	}
	return r.val[i], true
}

// Put stores v as slot's value. When the cell was live, old is its value —
// slot's previous one, or that of the older slot the ring evicts — so the
// caller can release it.
func (r *SlotRing[T]) Put(slot uint64, v T) (old T, had bool) {
	i := slot % RingSlots
	if r.live&(1<<i) != 0 {
		old, had = r.val[i], true
	}
	r.live |= 1 << i
	r.tag[i], r.val[i] = slot, v
	return old, had
}

// Delete ends slot's life and returns its value, or the zero T and false
// when slot was not live.
func (r *SlotRing[T]) Delete(slot uint64) (T, bool) {
	v, ok := r.Get(slot)
	if ok {
		r.live &^= 1 << (slot % RingSlots)
	}
	return v, ok
}

// DeleteBefore ends the life of every slot below bound: a sweep of the
// live tags.
func (r *SlotRing[T]) DeleteBefore(bound uint64) {
	for m := r.live; m != 0; m &= m - 1 {
		if i := bits.TrailingZeros32(m); r.tag[i] < bound {
			r.live &^= 1 << i
		}
	}
}

// Spare returns what an ended slot left in slot's cell, so a caller can
// reuse its storage (a slice's backing array), or the zero T when the
// cell is live.
func (r *SlotRing[T]) Spare(slot uint64) T {
	i := slot % RingSlots
	if r.live&(1<<i) != 0 {
		var zero T
		return zero
	}
	return r.val[i]
}

// Lookup returns the live slot in the cell that slots ≡ slot (mod
// RingSlots) share, with its value; ok is false when that cell is empty.
func (r *SlotRing[T]) Lookup(slot uint64) (live uint64, v T, ok bool) {
	i := slot % RingSlots
	if r.live&(1<<i) == 0 {
		return 0, v, false
	}
	return r.tag[i], r.val[i], true
}

// Len returns the number of live slots.
func (r *SlotRing[T]) Len() int { return bits.OnesCount32(r.live) }

// Slots returns the live slots, walking the cells from the oldest slot's
// onward. That order is ascending whenever the live slots span fewer than
// RingSlots slots, as the PHY's and UE's GC horizons keep them; it is
// deterministic in every case.
func (r *SlotRing[T]) Slots() []uint64 {
	if r.live == 0 {
		return nil
	}
	first := bits.TrailingZeros32(r.live)
	for m := r.live; m != 0; m &= m - 1 {
		if i := bits.TrailingZeros32(m); r.tag[i] < r.tag[first] {
			first = i
		}
	}
	dst := make([]uint64, 0, r.Len())
	rot := bits.RotateLeft32(r.live, -first) // bit j: cell (first+j) % RingSlots
	for m := rot; m != 0; m &= m - 1 {
		dst = append(dst, r.tag[(first+bits.TrailingZeros32(m))%RingSlots])
	}
	return dst
}
