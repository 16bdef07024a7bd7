package ue

import (
	"fmt"
	"testing"

	"slingshot/internal/dsp"
	"slingshot/internal/fapi"
	"slingshot/internal/fronthaul"
	"slingshot/internal/mem"
	"slingshot/internal/phy"
	"slingshot/internal/sim"
)

// TestRadioPathSteadyStateAllocs pins both directions of the UE's radio
// path at zero allocations per block once warm: the uplink block is built,
// padded and passed through the channel in one pooled lease, the downlink
// IQ is decompressed and received in UE-owned scratch, and the UCI queue
// keeps its array across collections.
func TestRadioPathSteadyStateAllocs(t *testing.T) {
	if mem.DetectorArmed() {
		t.Skip("pool double-free detector armed (-race); its bookkeeping allocates")
	}
	const runs = 20 // AllocsPerRun adds one warm-up call
	e := sim.NewEngine()
	cfg := DefaultConfig(1, 0, "test-ue", 30) // fading on
	u := New(e, cfg, sim.NewRNG(3))
	u.SetCellParams(cellSeed, 9)
	u.Attach()

	// Uplink: a grant per slot, the same HARQ process each time as the
	// scheduler reuses one after an ACK, and queued data for every PDU.
	const ulBase = 100
	var grants []fronthaul.Section
	for i := 0; i <= runs; i++ {
		grants = append(grants, ulGrant(ulBase+uint64(i), 100))
		u.SendUplink(make([]byte, 80))
	}
	u.DeliverControl(ulBase, grants)
	slot := uint64(ulBase)
	avg := testing.AllocsPerRun(runs, func() {
		iq, aux, ok := u.PullUplink(slot)
		if !ok || len(iq)%12 != 0 || len(aux) == 0 {
			t.Fatalf("slot %d: PullUplink ok=%v, %d samples, %d aux bytes", slot, ok, len(iq), len(aux))
		}
		mem.PutComplex(iq) // the RU's half of the contract
		slot++
	})
	if avg != 0 {
		t.Fatalf("steady-state PullUplink allocates %.1f times, want 0", avg)
	}

	// Downlink: one pre-built packet per slot, each carrying the next
	// (empty) RLC PDU so reassembly stays in order and delivers nothing.
	const dlBase = 200
	codec := phy.NewCodec(0, 0, 9, cellSeed)
	l2tx := newSegmenter()
	var assigns []fronthaul.Section
	var pkts []*fronthaul.Packet
	for i := 0; i <= runs; i++ {
		s := dlBase + uint64(i)
		assigns = append(assigns, dlAssign(s))
		pdu := l2tx.BuildPDU(200)
		iq := phy.PadSymbols(codec.EncodeBlock(pdu, s, 1, dsp.QAM16))
		pkt, err := fronthaul.NewDownlinkIQ(0, 0, fronthaul.SlotFromCounter(s), 0, 10, iq, 9)
		if err != nil {
			t.Fatal(err)
		}
		pkt.Section, pkt.Aux = 1, pdu
		pkts = append(pkts, pkt)
	}
	u.DeliverControl(dlBase, assigns)
	var uci []fapi.UCI
	i := 0
	avg = testing.AllocsPerRun(runs, func() {
		u.DeliverDownlink(dlBase+uint64(i), pkts[i])
		uci = u.CollectUCI(uci[:0]) // the RU drains the queue every slot
		i++
	})
	if u.Stats.DLBlocksOK != runs+1 {
		t.Fatalf("DLBlocksOK = %d of %d", u.Stats.DLBlocksOK, runs+1)
	}
	if avg != 0 {
		t.Fatalf("steady-state DeliverDownlink allocates %.1f times, want 0", avg)
	}
	u.Stop()
}

// TestPullUplinkOverwritesStaleLease: the uplink block is built in a
// recycled lease whose previous contents depend on which worker returned
// it last, so every sample handed to the RU — the pad to whole PRBs
// included — must be written. A UE drawing from a pool primed with 1e9,
// or from one TrackLeases poisons with NaN, must produce the very bits of
// its twin drawing from a pool primed with zeros.
func TestPullUplinkOverwritesStaleLease(t *testing.T) {
	pull := func(fill complex128, poison bool) []complex128 {
		if poison {
			defer mem.TrackLeases()()
		}
		var held [][]complex128
		for i := 0; i < 4; i++ {
			b := mem.GetComplexCap(192)
			b = b[:cap(b)]
			for j := range b {
				b[j] = fill
			}
			held = append(held, b)
		}
		for _, b := range held {
			mem.PutComplex(b)
		}
		u := New(sim.NewEngine(), DefaultConfig(1, 0, "test-ue", 30), sim.NewRNG(3))
		u.SetCellParams(cellSeed, 9)
		u.Attach()
		u.SendUplink([]byte("payload"))
		g := ulGrant(14, 100)
		g.ModBits = uint8(dsp.QAM16) // 160 symbols: 8 samples of pad
		u.DeliverControl(10, []fronthaul.Section{g})
		iq, _, ok := u.PullUplink(14)
		if !ok {
			t.Fatal("no transmission despite grant")
		}
		return iq
	}
	want := pull(0, false)
	for _, tc := range []struct {
		name string
		got  []complex128
	}{
		{"1e9-primed", pull(complex(1e9, -1e9), false)},
		{"poisoned", pull(0, true)},
	} {
		if len(tc.got) != len(want) || len(tc.got)%12 != 0 {
			t.Fatalf("%s block has %d samples, zero-primed %d", tc.name, len(tc.got), len(want))
		}
		for i := range want {
			if tc.got[i] != want[i] {
				t.Fatalf("%s sample %d: %v, zero-primed %v", tc.name, i, tc.got[i], want[i])
			}
		}
	}
}

// controlStep returns a step that delivers, one slot at a time, a DL
// C-plane heartbeat of n sections — an uplink grant and a downlink
// assignment two slots ahead for each of n/2 UEs, this UE's first — to a
// connected UE that never pulls its grants, so the slot GC retires them.
func controlStep(n int) (step func()) {
	e := sim.NewEngine()
	u := newUE(e, 30)
	u.Attach()
	secs := make([]fronthaul.Section, n)
	for i := range secs {
		if i%2 == 0 {
			secs[i] = ulGrant(0, 100)
		} else {
			secs[i] = dlAssign(0)
		}
		secs[i].UEID = uint16(i/2 + 1)
	}
	slot := uint64(0)
	return func() {
		for i := range secs {
			secs[i].GrantSlot = slot + 2
		}
		u.DeliverControl(slot, secs)
		slot++
	}
}

// BenchmarkUEDeliverControl is the per-heartbeat host cost of a UE's
// C-plane reception: section filter, slot rings, and their GC sweep.
func BenchmarkUEDeliverControl(b *testing.B) {
	for _, n := range []int{2, 96} {
		b.Run(fmt.Sprintf("sections=%d", n), func(b *testing.B) {
			step := controlStep(n)
			for range 2 * phy.RingSlots {
				step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				step()
			}
		})
	}
}

// TestDeliverControlSteadyStateAllocs pins BenchmarkUEDeliverControl's
// steps at zero allocations once the slot rings are warm.
func TestDeliverControlSteadyStateAllocs(t *testing.T) {
	for _, n := range []int{2, 96} {
		step := controlStep(n)
		for range 2 * phy.RingSlots {
			step()
		}
		if avg := testing.AllocsPerRun(100, step); avg != 0 {
			t.Fatalf("%d sections: steady-state DeliverControl allocates %.2f times, want 0", n, avg)
		}
	}
}
