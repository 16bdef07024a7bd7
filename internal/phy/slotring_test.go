package phy

import (
	"math/rand"
	"slices"
	"testing"

	"slingshot/internal/dsp"
	"slingshot/internal/fapi"
	"slingshot/internal/fronthaul"
	"slingshot/internal/sim"
)

// TestSlotRingMatchesMapModel drives a SlotRing and a map[uint64]int
// through the same random Put/Get/Delete/DeleteBefore/Lookup script over a
// window that slides past the 5120-slot fronthaul wrap. The model applies
// the ring's one deliberate difference from a map: a Put evicts the live
// slot that shares its cell. Slots must list the live set in ascending
// order whenever it spans fewer than RingSlots slots.
func TestSlotRingMatchesMapModel(t *testing.T) {
	for _, start := range []uint64{0, fronthaul.SlotWrap - 40, 1 << 40} {
		rng := rand.New(rand.NewSource(int64(start) + 1))
		var r SlotRing[int]
		model := map[uint64]int{}
		base := start
		for op := 0; op < 20000; op++ {
			slot := base + uint64(rng.Intn(RingSlots))
			switch k := rng.Intn(10); {
			case k < 4:
				v := rng.Int()
				wantOld, wantHad := 0, false
				for s, mv := range model {
					if s%RingSlots == slot%RingSlots {
						wantOld, wantHad = mv, true
						delete(model, s)
					}
				}
				model[slot] = v
				if old, had := r.Put(slot, v); old != wantOld || had != wantHad {
					t.Fatalf("Put(%d) = %d,%v, model %d,%v", slot, old, had, wantOld, wantHad)
				}
			case k < 6:
				want, wantOK := model[slot]
				if got, ok := r.Get(slot); got != want || ok != wantOK {
					t.Fatalf("Get(%d) = %d,%v, model %d,%v", slot, got, ok, want, wantOK)
				}
			case k < 7:
				want, wantOK := model[slot]
				delete(model, slot)
				if got, ok := r.Delete(slot); got != want || ok != wantOK {
					t.Fatalf("Delete(%d) = %d,%v, model %d,%v", slot, got, ok, want, wantOK)
				}
				if spare := r.Spare(slot); wantOK && spare != want {
					t.Fatalf("Spare(%d) = %d after deleting %d", slot, spare, want)
				}
			case k < 8:
				for s := range model {
					if s < base {
						delete(model, s)
					}
				}
				r.DeleteBefore(base)
			case k < 9:
				idx := slot % fronthaul.SlotWrap
				var wantLive uint64
				wantV, wantOK := 0, false
				for s, mv := range model {
					if s%RingSlots == idx%RingSlots {
						wantLive, wantV, wantOK = s, mv, true
					}
				}
				if live, v, ok := r.Lookup(idx); live != wantLive || v != wantV || ok != wantOK {
					t.Fatalf("Lookup(%d) = %d,%d,%v, model %d,%d,%v", idx, live, v, ok, wantLive, wantV, wantOK)
				}
			default:
				base += uint64(rng.Intn(4))
			}

			want := make([]uint64, 0, len(model))
			for s := range model {
				want = append(want, s)
			}
			slices.Sort(want)
			got := r.Slots()
			if r.Len() != len(want) {
				t.Fatalf("Len = %d, model %d", r.Len(), len(want))
			}
			if len(want) > 0 && want[len(want)-1]-want[0] >= RingSlots {
				slices.Sort(got)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("op %d: Slots = %v, model %v", op, got, want)
			}
		}
	}
}

// TestMatchULSlotAcrossWrap resolves wrapped SlotIDs against UL configs on
// both sides of the 5120-slot wrap: each names its own config, and a
// SlotID whose ring cell holds a different wrap index matches nothing.
func TestMatchULSlotAcrossWrap(t *testing.T) {
	h := newHarness(t, DefaultConfig(1))
	h.phy.HandleFAPI(&fapi.ConfigRequest{CellID: 0, NumPRB: 273, MantissaBits: 9, Seed: 99})
	c := h.phy.cells[0]
	cfgs := map[uint64]*fapi.ULConfig{}
	for slot := uint64(5118); slot <= 5122; slot++ {
		cfgs[slot] = &fapi.ULConfig{CellID: 0, Slot: slot}
		h.phy.HandleFAPI(cfgs[slot])
	}
	for slot := uint64(5118); slot <= 5122; slot++ {
		got, cfg := c.matchULSlot(fronthaul.SlotFromCounter(slot))
		if got != slot || cfg != cfgs[slot] {
			t.Fatalf("slot %d matched %d (%p), want %p", slot, got, cfg, cfgs[slot])
		}
	}
	// 5122+32 shares 5122's cell but not its wrap index; 5123 has no config.
	for _, slot := range []uint64{5122 + RingSlots, 5123} {
		if got, cfg := c.matchULSlot(fronthaul.SlotFromCounter(slot)); cfg != nil {
			t.Fatalf("slot %d matched config of slot %d", slot, got)
		}
	}
}

// ulSlotRig starts cell 0 with null configs for 12 slots and a UL config
// granting ues in slot 4; it returns the rig and the transport block every
// UE sends.
func ulSlotRig(t *testing.T, ues ...uint16) (*harness, *Codec, []byte) {
	t.Helper()
	h := newHarness(t, DefaultConfig(1))
	h.configureAndStart(0)
	h.feedNullConfigs(0, 12)
	tb := []byte("uplink payload bytes")
	ul := &fapi.ULConfig{CellID: 0, Slot: 4}
	for _, ue := range ues {
		ul.PDUs = append(ul.PDUs, fapi.PDU{
			UEID: ue, HARQID: 1, NewData: true,
			Alloc:   dsp.Allocation{UEID: ue, StartPRB: 0, NumPRB: 10, Mod: dsp.QPSK},
			TBBytes: uint32(len(tb)),
		})
	}
	h.e.At(SlotStart(3)+100*sim.Microsecond, "ulcfg", func() { h.phy.HandleFAPI(ul) })
	return h, NewCodec(0, 0, 9, 99), tb
}

func crcResults(t *testing.T, h *harness) []fapi.CRCResult {
	t.Helper()
	crcs := h.messagesOfKind(fapi.KindCRCIndication)
	if len(crcs) != 1 {
		t.Fatalf("CRC indications = %d, want 1", len(crcs))
	}
	return crcs[0].(*fapi.CRCIndication).Results
}

func TestPHYDuplicateULPacketRejected(t *testing.T) {
	h, codec, tb := ulSlotRig(t, 7)
	h.e.At(SlotStart(4)+200*sim.Microsecond, "ulpkt", func() {
		sendULPacket(t, h, codec, 0, 7, 4, tb, dsp.QPSK, 30)
		sendULPacket(t, h, codec, 0, 7, 4, tb, dsp.QPSK, 30)
	})
	h.e.RunUntil(12 * TTI)
	if h.phy.Stats.FronthaulRx != 2 {
		t.Fatalf("FronthaulRx = %d, want 2", h.phy.Stats.FronthaulRx)
	}
	res := crcResults(t, h)
	if len(res) != 1 || res[0].UEID != 7 || !res[0].OK {
		t.Fatalf("CRC results = %+v, want one OK for UE 7", res)
	}
	if rx := h.messagesOfKind(fapi.KindRxData); len(rx) != 1 || len(rx[0].(*fapi.RxData).Payloads) != 1 {
		t.Fatalf("RX_DATA = %v, want one payload", rx)
	}
}

// TestPHYGrantedUEWithoutPacketGetsDTX grants three UEs, receives two of
// them out of id order, and expects the received pair decoded in id order
// followed by DTX (CRC fail) for the silent one.
func TestPHYGrantedUEWithoutPacketGetsDTX(t *testing.T) {
	h, codec, tb := ulSlotRig(t, 3, 7, 9)
	h.e.At(SlotStart(4)+200*sim.Microsecond, "ulpkt", func() {
		sendULPacket(t, h, codec, 0, 9, 4, tb, dsp.QPSK, 30)
		sendULPacket(t, h, codec, 0, 3, 4, tb, dsp.QPSK, 30)
	})
	h.e.RunUntil(12 * TTI)
	res := crcResults(t, h)
	want := []struct {
		ue uint16
		ok bool
	}{{3, true}, {9, true}, {7, false}}
	if len(res) != len(want) {
		t.Fatalf("CRC results = %+v", res)
	}
	for i, w := range want {
		if res[i].UEID != w.ue || res[i].OK != w.ok {
			t.Fatalf("CRC result %d = %+v, want UE %d OK=%v", i, res[i], w.ue, w.ok)
		}
	}
	if h.phy.Stats.DecodeOK != 2 || h.phy.Stats.DecodeFail != 1 {
		t.Fatalf("DecodeOK/Fail = %d/%d, want 2/1", h.phy.Stats.DecodeOK, h.phy.Stats.DecodeFail)
	}
}

// TestSlotGCReleasesWhatItSkips covers the state the slot GC never reaches:
// processSlot only deletes slot−20 for slot > 20, so a slot-0 config, or one
// for a slot the cell never processed, stays behind. Its ring cell's next
// slot evicts and releases it (the released message is reset by its pool).
func TestSlotGCReleasesWhatItSkips(t *testing.T) {
	h := newHarness(t, DefaultConfig(1))
	h.configureAndStart(1)
	h.feedNullConfigs(1, 40)
	slot0 := fapi.NullUL(1, 0)
	h.e.At(0, "slot0", func() { h.phy.HandleFAPI(slot0) })
	c := h.phy.cells[1]
	h.e.RunUntil(SlotStart(RingSlots - 1))
	if cfg, ok := c.ulConfigs.Get(0); !ok || cfg != slot0 {
		t.Fatalf("slot-0 config gone before its cell is reused")
	}
	h.e.RunUntil(SlotStart(RingSlots + 1))
	if _, ok := c.ulConfigs.Get(0); ok {
		t.Fatal("slot-0 config still live after slot 32's config took its cell")
	}
	if slot0.CellID != 0 {
		t.Fatal("evicted slot-0 config was not released")
	}

	// A configured cell that never starts processes no slot at all.
	h.phy.HandleFAPI(&fapi.ConfigRequest{CellID: 2, NumPRB: 273, MantissaBits: 9, Seed: 99})
	idle := h.phy.cells[2]
	stale := &fapi.DLConfig{CellID: 2, Slot: 7}
	h.phy.HandleFAPI(stale)
	h.phy.HandleFAPI(&fapi.DLConfig{CellID: 2, Slot: 7 + RingSlots})
	if _, ok := idle.dlConfigs.Get(7); ok || stale.CellID != 0 {
		t.Fatal("config for a never-processed slot not released when its cell was reused")
	}
	if got := idle.dlConfigs.Slots(); !slices.Equal(got, []uint64{7 + RingSlots}) {
		t.Fatalf("live DL slots = %v", got)
	}
}
