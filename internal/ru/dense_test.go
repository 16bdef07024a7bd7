package ru

import (
	"bytes"
	"fmt"
	"testing"

	"slingshot/internal/ckpt/wire"
	"slingshot/internal/dsp"
	"slingshot/internal/fronthaul"
	"slingshot/internal/mem"
	"slingshot/internal/netmodel"
	"slingshot/internal/par"
	"slingshot/internal/phy"
	"slingshot/internal/sim"
	"slingshot/internal/ue"
)

// denseRig is a real RU with real UEs and nothing else: grants arrive as
// DL C-plane frames the test injects, and every frame the RU transmits
// lands in sink.
type denseRig struct {
	e   *sim.Engine
	r   *RU
	ues []*ue.UE
}

const denseUEs = 96

func newDenseRig(n int, sink func(*netmodel.Frame)) *denseRig {
	const cellSeed = 0xD15E
	e := sim.NewEngine()
	rig := &denseRig{e: e, r: New(e, DefaultConfig(0))}
	rig.r.SendFronthaul = sink
	rng := sim.NewRNG(41)
	for i := 0; i < n; i++ {
		id := uint16(i + 1)
		u := ue.New(e, ue.DefaultConfig(id, 0, fmt.Sprintf("ue-%d", id), 12+float64(i%20)), rng.Fork(uint64(id)))
		u.SetCellParams(cellSeed, 9)
		u.Attach()
		rig.ues = append(rig.ues, u)
		rig.r.AddUE(u)
	}
	return rig
}

// grant queues uplink data on every UE and delivers the uplink grants for
// ulSlot over the air, as the PHY's DL C-plane packet would. Across UEs and
// slots the grants mix all three pad lengths (QPSK 0, 16QAM 8, 64QAM 2
// samples), new data with retransmissions, and silent UEs.
func (rig *denseRig) grant(ulSlot uint64) {
	k := ulSlot / 5
	var secs []fronthaul.Section
	for i, u := range rig.ues {
		u.SendUplink(make([]byte, 40+i))
		if (uint64(i)+k)%7 == 0 {
			continue // radio silence this slot
		}
		secs = append(secs, fronthaul.Section{
			UEID: u.ID(), Dir: fronthaul.Uplink, NumPRB: 2,
			ModBits: uint8([]dsp.Modulation{dsp.QPSK, dsp.QAM16, dsp.QAM64}[i%3]),
			HARQID:  1, NewData: (uint64(i)+k)%4 != 0,
			TBBytes: uint32(60 + i), GrantSlot: ulSlot,
		})
	}
	now := phy.SlotAt(rig.e.Now())
	cp := fronthaul.NewControl(0, 0, fronthaul.Downlink, fronthaul.SlotFromCounter(now), uint8(len(secs)))
	cp.Payload = fronthaul.EncodeSections(secs)
	rig.r.HandleFrame(&netmodel.Frame{Src: netmodel.PHYAddr(1), Dst: rig.r.Addr,
		Type: netmodel.EtherTypeECPRI, Payload: cp.SerializePooled()})
}

// denseRun is everything a dense-cell run leaves behind that a report could
// depend on.
type denseRun struct {
	frames [][]byte   // wire bytes of each frame passed to SendFronthaul, in call order
	at     []sim.Time // and when
	ues    [][]byte   // each UE's checkpoint image: stats, channel RNG point, HARQ-TX digests
	ru     []byte     // the RU's: stats and seq
}

// runDense drives four uplink slots of a 96-UE cell at the given pool width.
func runDense(t *testing.T, workers int) denseRun {
	t.Helper()
	prev := par.SetWorkers(workers)
	defer par.SetWorkers(prev)
	defer mem.TrackLeases()()

	var run denseRun
	var rig *denseRig
	rig = newDenseRig(denseUEs, func(f *netmodel.Frame) {
		run.frames = append(run.frames, append([]byte(nil), f.Payload...))
		run.at = append(run.at, rig.e.Now())
		netmodel.ReleaseFrame(f) // the terminal consumer's duty; keeps the lease ledger flat
	})
	ulSlots := []uint64{4, 9, 14, 19}
	for _, s := range ulSlots {
		s := s
		rig.e.At(phy.SlotStart(s-3)+100*sim.Microsecond, "test.grant", func() { rig.grant(s) })
	}
	rig.r.Start()

	// By the last uplink slot every UE holds its HARQ-TX buffer, so the
	// slot must hand back every lease it takes: IQ and payload leases, the
	// status packet's aux, the wire buffers the sink releases.
	last := ulSlots[len(ulSlots)-1]
	rig.e.RunUntil(phy.SlotStart(last) - 1)
	before := mem.LeakedLeases()
	if before < 0 {
		t.Fatal("lease tracking not armed")
	}
	sent := len(run.frames)
	rig.e.RunUntil(phy.SlotStart(last+1) - 1)
	if len(run.frames) == sent {
		t.Fatalf("workers=%d: uplink slot %d transmitted nothing", workers, last)
	}
	if after := mem.LeakedLeases(); after != before {
		t.Errorf("workers=%d: %d leases outstanding after the slot, %d before it", workers, after, before)
	}
	rig.r.Stop()

	for _, u := range rig.ues {
		w := wire.NewW()
		u.SnapshotTo(w)
		run.ues = append(run.ues, w.Bytes())
		u.Stop()
	}
	w := wire.NewW()
	rig.r.SnapshotTo(w)
	run.ru = w.Bytes()
	return run
}

// TestCollectUplinkInvariantToWorkers pins the parallel uplink phase's
// contract with real UEs: every frame the RU transmits — payload bytes,
// order, timing, sequence numbers — and every UE's and the RU's state
// afterwards are identical at any pool width.
func TestCollectUplinkInvariantToWorkers(t *testing.T) {
	base := runDense(t, 1)

	// The sequential schedule itself: each uplink slot's U-plane packets go
	// out in r.ues order with consecutive sequence numbers.
	data := 0
	var prev *fronthaul.Packet
	var prevAt sim.Time
	for i, wireBytes := range base.frames {
		pkt, err := fronthaul.Decode(wireBytes)
		if err != nil {
			t.Fatal(err)
		}
		if pkt.Type != fronthaul.MsgIQData {
			continue
		}
		data++
		if prev != nil && prevAt == base.at[i] {
			if pkt.Seq != prev.Seq+1 || pkt.Section <= prev.Section {
				t.Fatalf("frame %d: seq %d section %d follows seq %d section %d",
					i, pkt.Seq, pkt.Section, prev.Seq, prev.Section)
			}
		}
		prev, prevAt = pkt, base.at[i]
	}
	want := 0
	for k := 0; k < 4; k++ {
		for i := 0; i < denseUEs; i++ {
			if (i+k)%7 != 0 {
				want++
			}
		}
	}
	if data != want {
		t.Fatalf("%d U-plane packets over four uplink slots, want %d", data, want)
	}

	for _, workers := range []int{2, 4} {
		got := runDense(t, workers)
		if len(got.frames) != len(base.frames) {
			t.Fatalf("workers=%d: %d frames, workers=1 sent %d", workers, len(got.frames), len(base.frames))
		}
		for i := range base.frames {
			if got.at[i] != base.at[i] || !bytes.Equal(got.frames[i], base.frames[i]) {
				t.Fatalf("workers=%d: frame %d differs from workers=1", workers, i)
			}
		}
		for i := range base.ues {
			if !bytes.Equal(got.ues[i], base.ues[i]) {
				t.Fatalf("workers=%d: UE %d state differs from workers=1: %s",
					workers, i+1, wire.Diff(base.ues[i], got.ues[i]))
			}
		}
		if !bytes.Equal(got.ru, base.ru) {
			t.Fatalf("workers=%d: RU state differs from workers=1", workers)
		}
	}
}

// BenchmarkCollectUplink times one uplink slot of a 96-UE cell: grant
// delivery, the per-UE synthesis fan-out, the sequential packet phase and
// the frames' flight to the sink (toggling the timer around collectUplink
// alone stops the world twice per op and parks the workers). workers=1 is
// the serial schedule; its ratio to workers=2 is the fan-out's efficiency.
func BenchmarkCollectUplink(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			prev := par.SetWorkers(workers)
			defer par.SetWorkers(prev)
			rig := newDenseRig(denseUEs, netmodel.ReleaseFrame)
			slot := uint64(4)
			step := func() {
				rig.e.RunUntil(phy.SlotStart(slot-2) + 100*sim.Microsecond)
				rig.grant(slot)
				rig.e.RunUntil(phy.SlotStart(slot))
				rig.r.collectUplink(slot)
				rig.e.RunUntil(phy.SlotStart(slot + 1))
				slot += 5
			}
			for i := 0; i < 4; i++ {
				step() // warm the pools and every UE's HARQ-TX buffer
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}
