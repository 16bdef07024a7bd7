package ru

import (
	"testing"

	"slingshot/internal/fapi"
	"slingshot/internal/fronthaul"
	"slingshot/internal/mem"
	"slingshot/internal/netmodel"
	"slingshot/internal/phy"
	"slingshot/internal/sim"
)

// fakeUE implements AttachedUE for RU tests.
type fakeUE struct {
	id       uint16
	ctrl     []uint64 // slots at which control arrived
	dl       []*fronthaul.Packet
	dlSlots  []uint64
	ulIQ     []complex128
	ulAux    []byte
	ulPulled []uint64
	uci      []fapi.UCI
}

func (f *fakeUE) ID() uint16 { return f.id }
func (f *fakeUE) DeliverControl(slot uint64, secs []fronthaul.Section) {
	f.ctrl = append(f.ctrl, slot)
}
func (f *fakeUE) DeliverDownlink(slot uint64, pkt *fronthaul.Packet) {
	f.dl = append(f.dl, pkt)
	f.dlSlots = append(f.dlSlots, slot)
}
func (f *fakeUE) PullUplink(slot uint64) ([]complex128, []byte, bool) {
	f.ulPulled = append(f.ulPulled, slot)
	if f.ulIQ == nil {
		return nil, nil, false
	}
	// The RU returns the IQ to the pool, so hand it a lease of its own.
	return append(mem.GetComplexCap(len(f.ulIQ)), f.ulIQ...), f.ulAux, true
}
func (f *fakeUE) CollectUCI(dst []fapi.UCI) []fapi.UCI {
	dst = append(dst, f.uci...)
	f.uci = nil
	return dst
}

type capture struct {
	frames []*netmodel.Frame
	at     []sim.Time
}

func newRURig() (*sim.Engine, *RU, *fakeUE, *capture) {
	e := sim.NewEngine()
	r := New(e, DefaultConfig(0))
	cap := &capture{}
	r.SendFronthaul = func(f *netmodel.Frame) {
		cap.frames = append(cap.frames, f)
		cap.at = append(cap.at, e.Now())
	}
	u := &fakeUE{id: 7}
	r.AddUE(u)
	return e, r, u, cap
}

func TestRUStatusPacketEverySlot(t *testing.T) {
	e, r, _, cap := newRURig()
	r.Start()
	e.RunUntil(10 * phy.TTI)
	r.Stop()
	status := 0
	for _, f := range cap.frames {
		pkt, err := fronthaul.Decode(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if pkt.Type == fronthaul.MsgRTControl && pkt.Dir == fronthaul.Uplink {
			status++
			if f.Dst != netmodel.VirtualPHYAddr(0) {
				t.Fatalf("status sent to %v, want virtual PHY address", f.Dst)
			}
		}
	}
	if status < 9 {
		t.Fatalf("status packets = %d over 10 slots", status)
	}
}

func TestRUCollectsUplinkOnULSlots(t *testing.T) {
	e, r, u, cap := newRURig()
	u.ulIQ = make([]complex128, 24)
	u.ulAux = []byte("tb bytes")
	r.Start()
	e.RunUntil(10 * phy.TTI)
	r.Stop()

	// PullUplink must only happen on UL slots (slot%5 == 4).
	for _, s := range u.ulPulled {
		if phy.KindOf(s) != phy.SlotUL {
			t.Fatalf("pulled uplink on slot %d (%v)", s, phy.KindOf(s))
		}
	}
	if len(u.ulPulled) != 2 {
		t.Fatalf("pulled %d times over 10 slots", len(u.ulPulled))
	}
	var data int
	for _, f := range cap.frames {
		pkt, _ := fronthaul.Decode(f.Payload)
		if pkt != nil && pkt.Type == fronthaul.MsgIQData {
			data++
			if pkt.Section != 7 || string(pkt.Aux) != "tb bytes" {
				t.Fatalf("UL packet: section=%d aux=%q", pkt.Section, pkt.Aux)
			}
			if f.Virtual <= len(f.Payload)/4 {
				t.Log("virtual size small; acceptable for tiny IQ")
			}
		}
	}
	if data != 2 {
		t.Fatalf("UL data packets = %d", data)
	}
}

func TestRUSilentUENotTransmitted(t *testing.T) {
	e, r, u, cap := newRURig()
	u.ulIQ = nil // no grant -> radio silence
	r.Start()
	e.RunUntil(10 * phy.TTI)
	r.Stop()
	for _, f := range cap.frames {
		pkt, _ := fronthaul.Decode(f.Payload)
		if pkt != nil && pkt.Type == fronthaul.MsgIQData {
			t.Fatal("U-plane packet for silent UE")
		}
	}
}

func TestRUStatusCarriesUCI(t *testing.T) {
	e, r, u, cap := newRURig()
	u.uci = []fapi.UCI{{UEID: 7, HARQID: 2, HasFeedback: true, ACK: true, CQIdB: 20}}
	r.Start()
	e.RunUntil(2 * phy.TTI)
	r.Stop()
	found := false
	for _, f := range cap.frames {
		pkt, _ := fronthaul.Decode(f.Payload)
		if pkt == nil || pkt.Type != fronthaul.MsgRTControl {
			continue
		}
		reports, err := fapi.DecodeUCIList(pkt.Aux)
		if err != nil {
			t.Fatal(err)
		}
		for _, rep := range reports {
			if rep.UEID == 7 && rep.HARQID == 2 && rep.ACK {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("UCI never shipped in status packet")
	}
}

func TestRUDownlinkDelivery(t *testing.T) {
	e, r, u, _ := newRURig()
	r.Start()
	e.At(2*phy.TTI+100*sim.Microsecond, "dl", func() {
		// C-plane with a section, then a U-plane packet for UE 7.
		cp := fronthaul.NewControl(0, 0, fronthaul.Downlink, fronthaul.SlotFromCounter(2), 1)
		cp.Payload = fronthaul.EncodeSections([]fronthaul.Section{
			{UEID: 7, Dir: fronthaul.Downlink, GrantSlot: 2},
		})
		r.HandleFrame(&netmodel.Frame{Src: netmodel.PHYAddr(1), Dst: r.Addr,
			Type: netmodel.EtherTypeECPRI, Payload: cp.Serialize()})
		up, _ := fronthaul.NewDownlinkIQ(0, 1, fronthaul.SlotFromCounter(2), 0, 1,
			make([]complex128, 12), 9)
		up.Section = 7
		r.HandleFrame(&netmodel.Frame{Src: netmodel.PHYAddr(1), Dst: r.Addr,
			Type: netmodel.EtherTypeECPRI, Payload: up.Serialize()})
	})
	e.RunUntil(3 * phy.TTI)
	r.Stop()
	if len(u.ctrl) != 1 || u.ctrl[0] != 2 {
		t.Fatalf("control deliveries: %v", u.ctrl)
	}
	if len(u.dl) != 1 || u.dlSlots[0] != 2 {
		t.Fatalf("downlink deliveries: %v", u.dlSlots)
	}
	if !r.Alive(10 * sim.Millisecond) {
		t.Fatal("RU not alive after DL reception")
	}
}

func TestRUDownlinkFiltersByUE(t *testing.T) {
	e, r, u, _ := newRURig()
	other := &fakeUE{id: 9}
	r.AddUE(other)
	r.Start()
	e.At(phy.TTI, "dl", func() {
		up, _ := fronthaul.NewDownlinkIQ(0, 1, fronthaul.SlotFromCounter(1), 0, 1,
			make([]complex128, 12), 9)
		up.Section = 9
		r.HandleFrame(&netmodel.Frame{Src: netmodel.PHYAddr(1), Dst: r.Addr,
			Type: netmodel.EtherTypeECPRI, Payload: up.Serialize()})
	})
	e.RunUntil(2 * phy.TTI)
	r.Stop()
	if len(u.dl) != 0 {
		t.Fatal("UE 7 received UE 9's packet")
	}
	if len(other.dl) != 1 {
		t.Fatal("UE 9 missed its packet")
	}
}

func TestRUAliveWindow(t *testing.T) {
	e, r, _, _ := newRURig()
	if r.Alive(time10ms()) {
		t.Fatal("alive before any DL")
	}
	cp := fronthaul.NewControl(0, 0, fronthaul.Downlink, fronthaul.SlotFromCounter(0), 0)
	cp.Payload = fronthaul.EncodeSections(nil)
	r.HandleFrame(&netmodel.Frame{Src: netmodel.PHYAddr(1), Dst: r.Addr,
		Type: netmodel.EtherTypeECPRI, Payload: cp.Serialize()})
	if !r.Alive(time10ms()) {
		t.Fatal("not alive after DL")
	}
	e.RunUntil(100 * sim.Millisecond)
	if r.Alive(time10ms()) {
		t.Fatal("alive 100ms after last DL with 10ms window")
	}
}

func time10ms() sim.Time { return 10 * sim.Millisecond }

func TestResolveSlotNearWrap(t *testing.T) {
	// A packet stamped near the end of the wrap period, received just
	// after the wrap, must resolve backwards.
	nowSlot := uint64(fronthaul.SlotWrap + 2)
	sid := fronthaul.SlotFromCounter(fronthaul.SlotWrap - 1)
	if got := resolveSlot(sid, nowSlot); got != fronthaul.SlotWrap-1 {
		t.Fatalf("resolveSlot = %d, want %d", got, fronthaul.SlotWrap-1)
	}
	// And a fresh packet resolves forward.
	sid2 := fronthaul.SlotFromCounter(3)
	if got := resolveSlot(sid2, nowSlot); got != fronthaul.SlotWrap+3 {
		t.Fatalf("resolveSlot fresh = %d, want %d", got, fronthaul.SlotWrap+3)
	}
}

func TestRUBadFrameCounted(t *testing.T) {
	_, r, _, _ := newRURig()
	r.HandleFrame(&netmodel.Frame{Type: netmodel.EtherTypeECPRI, Payload: []byte{1, 2}})
	if r.Stats.DecodeErr != 1 {
		t.Fatalf("DecodeErr = %d", r.Stats.DecodeErr)
	}
	r.HandleFrame(&netmodel.Frame{Type: netmodel.EtherTypeUserData})
	// Non-fronthaul frames are ignored silently.
}
