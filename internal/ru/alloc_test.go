package ru

import (
	"testing"

	"slingshot/internal/fapi"
	"slingshot/internal/fronthaul"
	"slingshot/internal/mem"
	"slingshot/internal/netmodel"
	"slingshot/internal/sim"
)

// countingUE is an AttachedUE that only counts what the RU hands it, so a
// receive test measures the RU's bill and nothing of a UE's.
type countingUE struct {
	id       uint16
	ctrl, dl int
	sections int
}

func (u *countingUE) ID() uint16 { return u.id }
func (u *countingUE) DeliverControl(_ uint64, secs []fronthaul.Section) {
	u.ctrl++
	u.sections += len(secs)
}
func (u *countingUE) DeliverDownlink(_ uint64, pkt *fronthaul.Packet) {
	if pkt.Section == u.id {
		u.dl++
	}
}
func (u *countingUE) PullUplink(uint64) ([]complex128, []byte, bool) { return nil, nil, false }
func (u *countingUE) CollectUCI(dst []fapi.UCI) []fapi.UCI           { return dst }

// TestHandleFrameSteadyStateAllocs pins a warm RU.HandleFrame at zero
// allocations for both downlink frame kinds: a 2-section C-plane frame
// (decoded into the RU's reused section list) and a U-plane frame (decoded
// into the RU's receive packet). Each frame and its wire buffer come from
// and go back to their pools, as on the switch path; afterwards the
// receive packet holds no alias into a released wire buffer.
func TestHandleFrameSteadyStateAllocs(t *testing.T) {
	if mem.DetectorArmed() {
		t.Skip("pool double-free detector armed (-race); its bookkeeping allocates")
	}
	r := New(sim.NewEngine(), DefaultConfig(0))
	u := &countingUE{id: 7}
	r.AddUE(u)

	slot := fronthaul.SlotFromCounter(0)
	ctl := fronthaul.NewControl(0, 0, fronthaul.Downlink, slot, 2)
	ctl.Payload = fronthaul.EncodeSections([]fronthaul.Section{
		{UEID: 7, Dir: fronthaul.Downlink, NumPRB: 10, ModBits: 2, TBBytes: 64},
		{UEID: 9, Dir: fronthaul.Uplink, StartPRB: 10, NumPRB: 4, ModBits: 4, GrantSlot: 4},
	})
	iq, err := fronthaul.NewDownlinkIQ(0, 1, slot, 0, 1, make([]complex128, 12), 9)
	if err != nil {
		t.Fatal(err)
	}
	iq.Section = 7
	iq.Aux = []byte("tb-sidecar")

	for _, tc := range []struct {
		name string
		pkt  *fronthaul.Packet
		got  func() int
		per  int
	}{
		{"C-plane", ctl, func() int { return u.sections }, 2},
		{"U-plane", iq, func() int { return u.dl }, 1},
	} {
		deliver := func() {
			f := netmodel.GetFrame()
			f.Type = netmodel.EtherTypeECPRI
			f.Payload = tc.pkt.SerializePooled()
			r.HandleFrame(f)
		}
		deliver()
		before := tc.got()
		if avg := testing.AllocsPerRun(100, deliver); avg != 0 {
			t.Errorf("warm %s HandleFrame allocates %.2f times, want 0", tc.name, avg)
		}
		if n := tc.got() - before; n != 101*tc.per {
			t.Errorf("%s: UE saw %d deliveries over 101 frames, want %d", tc.name, n, 101*tc.per)
		}
		if r.rx.Payload != nil || r.rx.Aux != nil {
			t.Errorf("%s: receive packet still aliases a released wire buffer", tc.name)
		}
	}
	if r.Stats.DecodeErr != 0 {
		t.Fatalf("%d decode errors", r.Stats.DecodeErr)
	}
}
