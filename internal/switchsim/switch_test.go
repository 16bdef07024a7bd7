package switchsim

import (
	"testing"
	"testing/quick"

	"slingshot/internal/fronthaul"
	"slingshot/internal/netmodel"
	"slingshot/internal/sim"
)

type endpoint struct {
	e      *sim.Engine
	frames []*netmodel.Frame
	at     []sim.Time
}

func (ep *endpoint) HandleFrame(f *netmodel.Frame) {
	ep.frames = append(ep.frames, f)
	ep.at = append(ep.at, ep.e.Now())
}

// rig is a switch with one RU and two PHYs attached over zero-latency
// links.
type rig struct {
	e            *sim.Engine
	sw           *Switch
	ru           *endpoint
	phy0, phy1   *endpoint
	orion        *endpoint
	ruAddr       netmodel.Addr
	phy0A, phy1A netmodel.Addr
	orionA       netmodel.Addr
}

func newRig(t *testing.T) *rig {
	t.Helper()
	r := &rig{e: sim.NewEngine()}
	r.sw = New(r.e, sim.NewRNG(1))
	r.ru = &endpoint{e: r.e}
	r.phy0 = &endpoint{e: r.e}
	r.phy1 = &endpoint{e: r.e}
	r.orion = &endpoint{e: r.e}
	r.ruAddr = netmodel.RUAddr(0)
	r.phy0A = netmodel.PHYAddr(0)
	r.phy1A = netmodel.PHYAddr(1)
	r.orionA = netmodel.OrionAddr(9)

	r.sw.Connect(r.ruAddr, netmodel.NewLink(r.e, r.ru, 0, 0))
	r.sw.Connect(r.phy0A, netmodel.NewLink(r.e, r.phy0, 0, 0))
	r.sw.Connect(r.phy1A, netmodel.NewLink(r.e, r.phy1, 0, 0))
	r.sw.Connect(r.orionA, netmodel.NewLink(r.e, r.orion, 0, 0))

	r.sw.InstallRU(0, r.ruAddr)
	r.sw.InstallPHY(0, r.phy0A)
	r.sw.InstallPHY(1, r.phy1A)
	r.sw.SetMapping(0, 0)
	return r
}

func ulPacket(slot uint64) *netmodel.Frame {
	pkt := fronthaul.NewControl(0, 0, fronthaul.Uplink, fronthaul.SlotFromCounter(slot), 0)
	return &netmodel.Frame{
		Src: netmodel.RUAddr(0), Dst: netmodel.VirtualPHYAddr(0),
		Type: netmodel.EtherTypeECPRI, Payload: pkt.SerializePooled(),
	}
}

func dlPacket(srcPHY netmodel.Addr, slot uint64) *netmodel.Frame {
	pkt := fronthaul.NewControl(0, 0, fronthaul.Downlink, fronthaul.SlotFromCounter(slot), 0)
	return &netmodel.Frame{
		Src: srcPHY, Dst: netmodel.RUAddr(0),
		Type: netmodel.EtherTypeECPRI, Payload: pkt.SerializePooled(),
	}
}

func TestUplinkSteeredToPrimary(t *testing.T) {
	r := newRig(t)
	r.e.At(0, "send", func() { r.sw.HandleFrame(ulPacket(10)) })
	r.e.Run()
	if len(r.phy0.frames) != 1 || len(r.phy1.frames) != 0 {
		t.Fatalf("phy0=%d phy1=%d", len(r.phy0.frames), len(r.phy1.frames))
	}
	// Virtual address rewritten to physical.
	if r.phy0.frames[0].Dst != r.phy0A {
		t.Fatalf("dst = %v", r.phy0.frames[0].Dst)
	}
}

func TestDownlinkFromActivePHYForwarded(t *testing.T) {
	r := newRig(t)
	r.e.At(0, "send", func() { r.sw.HandleFrame(dlPacket(r.phy0A, 10)) })
	r.e.Run()
	if len(r.ru.frames) != 1 {
		t.Fatalf("ru got %d frames", len(r.ru.frames))
	}
}

func TestDownlinkFromSecondaryDropped(t *testing.T) {
	r := newRig(t)
	r.e.At(0, "send", func() { r.sw.HandleFrame(dlPacket(r.phy1A, 10)) })
	r.e.Run()
	if len(r.ru.frames) != 0 {
		t.Fatal("secondary's DL packet reached the RU")
	}
	if r.sw.Stats.DroppedStalePHY != 1 {
		t.Fatalf("DroppedStalePHY = %d", r.sw.Stats.DroppedStalePHY)
	}
}

func TestMigrateOnSlotExactBoundary(t *testing.T) {
	r := newRig(t)
	cmd := &Command{Type: CmdMigrateOnSlot, RU: 0, PHY: 1,
		Slot: fronthaul.SlotFromCounter(20), AbsSlot: 20}
	r.e.At(0, "cmd", func() {
		r.sw.HandleFrame(&netmodel.Frame{
			Src: r.orionA, Dst: netmodel.ControllerAddr(),
			Type: netmodel.EtherTypeControl, Payload: cmd.Encode(),
		})
	})
	// Packets for slots 18,19 go to PHY0; slot 20+ to PHY1.
	for i, slot := range []uint64{18, 19, 20, 21} {
		s := slot
		r.e.At(sim.Time(i+1)*1000, "ul", func() { r.sw.HandleFrame(ulPacket(s)) })
	}
	r.e.Run()
	if len(r.phy0.frames) != 2 {
		t.Fatalf("phy0 got %d frames, want 2 (slots 18,19)", len(r.phy0.frames))
	}
	if len(r.phy1.frames) != 2 {
		t.Fatalf("phy1 got %d frames, want 2 (slots 20,21)", len(r.phy1.frames))
	}
	if r.sw.Mapping(0) != 1 {
		t.Fatalf("mapping = %d", r.sw.Mapping(0))
	}
	if len(r.sw.MigrationLog) != 1 || r.sw.MigrationLog[0].FromPHY != 0 || r.sw.MigrationLog[0].ToPHY != 1 {
		t.Fatalf("migration log: %+v", r.sw.MigrationLog)
	}
	if r.sw.PendingMigration(0) {
		t.Fatal("migration still pending after execution")
	}
}

func TestMigrationBlocksOldPHYDownlink(t *testing.T) {
	r := newRig(t)
	cmd := &Command{Type: CmdMigrateOnSlot, RU: 0, PHY: 1, Slot: fronthaul.SlotFromCounter(20), AbsSlot: 20}
	r.e.At(0, "cmd", func() {
		r.sw.HandleFrame(&netmodel.Frame{Src: r.orionA, Dst: netmodel.ControllerAddr(),
			Type: netmodel.EtherTypeControl, Payload: cmd.Encode()})
	})
	// DL packet from PHY1 for slot 20 executes the migration and is
	// forwarded; afterwards PHY0's packets are dropped.
	r.e.At(1000, "dl1", func() { r.sw.HandleFrame(dlPacket(r.phy1A, 20)) })
	r.e.At(2000, "dl0", func() { r.sw.HandleFrame(dlPacket(r.phy0A, 20)) })
	r.e.Run()
	if len(r.ru.frames) != 1 {
		t.Fatalf("ru frames = %d", len(r.ru.frames))
	}
	if r.sw.Stats.DroppedStalePHY != 1 {
		t.Fatalf("DroppedStalePHY = %d", r.sw.Stats.DroppedStalePHY)
	}
}

func TestSlotGEWrapAround(t *testing.T) {
	f := func(a, b uint16) bool {
		sa := fronthaul.SlotFromCounter(uint64(a))
		sb := fronthaul.SlotFromCounter(uint64(b))
		diff := (sa.Index() + fronthaul.SlotWrap - sb.Index()) % fronthaul.SlotWrap
		return slotGE(sa, sb) == (diff < fronthaul.SlotWrap/2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Wrap case: slot 1 is "after" slot SlotWrap-1.
	if !slotGE(fronthaul.SlotFromCounter(1), fronthaul.SlotFromCounter(fronthaul.SlotWrap-1)) {
		t.Fatal("wrap-around comparison broken")
	}
}

func TestFailureDetectorFires(t *testing.T) {
	r := newRig(t)
	r.sw.ArmDetector(0, r.orionA)
	// PHY0 emits two control packets per 500us slot (30us and 260us
	// offsets, like the real PHY) until t=5ms, then goes silent.
	for i := 0; i < 10; i++ {
		slot := uint64(i)
		base := sim.Time(i) * 500 * sim.Microsecond
		r.e.At(base+30*sim.Microsecond, "hb", func() {
			r.sw.HandleFrame(dlPacket(r.phy0A, slot))
		})
		r.e.At(base+260*sim.Microsecond, "hb2", func() {
			r.sw.HandleFrame(dlPacket(r.phy0A, slot))
		})
	}
	r.e.RunUntil(20 * sim.Millisecond)
	r.sw.Stop()
	if len(r.orion.frames) != 1 {
		t.Fatalf("notifications = %d", len(r.orion.frames))
	}
	cmd, err := DecodeCommand(r.orion.frames[0].Payload)
	if err != nil || cmd.Type != CmdFailureNotify || cmd.PHY != 0 {
		t.Fatalf("notification: %+v err=%v", cmd, err)
	}
	// Detection must happen at last-heartbeat + timeout, to within the
	// emulated timer's precision T/n on either side (§5.2.2).
	last := 4760 * sim.Microsecond
	detected := r.sw.DetectionLog[0]
	lo := last + r.sw.Timeout - 2*r.sw.DetectionPrecision()
	hi := last + r.sw.Timeout + 2*r.sw.DetectionPrecision()
	if detected < lo || detected > hi {
		t.Fatalf("detected at %v, want within [%v, %v]", detected, lo, hi)
	}
}

func TestFailureDetectorNoFalsePositive(t *testing.T) {
	r := newRig(t)
	r.sw.ArmDetector(0, r.orionA)
	// Heartbeats every 400us (under the 450us timeout) for 50ms.
	for i := 0; i < 125; i++ {
		slot := uint64(i)
		r.e.At(sim.Time(i)*400*sim.Microsecond, "hb", func() {
			r.sw.HandleFrame(dlPacket(r.phy0A, slot))
		})
	}
	r.e.RunUntil(50 * sim.Millisecond)
	r.sw.Stop()
	if len(r.orion.frames) != 0 {
		t.Fatalf("false positive: %d notifications", len(r.orion.frames))
	}
}

func TestFailureDetectorFiresOnce(t *testing.T) {
	r := newRig(t)
	r.sw.ArmDetector(0, r.orionA)
	// One heartbeat starts the stream, then silence for many timeout
	// periods: exactly one (latched) notification.
	r.e.At(0, "hb", func() { r.sw.HandleFrame(dlPacket(r.phy0A, 0)) })
	r.e.RunUntil(100 * sim.Millisecond)
	r.sw.Stop()
	if len(r.orion.frames) != 1 {
		t.Fatalf("notifications = %d, want 1 (latched)", len(r.orion.frames))
	}
}

func TestFailureDetectorWaitsForFirstHeartbeat(t *testing.T) {
	r := newRig(t)
	r.sw.ArmDetector(0, r.orionA)
	// Never any packet from PHY0: a stream that never started cannot
	// time out.
	r.e.RunUntil(100 * sim.Millisecond)
	r.sw.Stop()
	if len(r.orion.frames) != 0 {
		t.Fatalf("notifications = %d for a PHY that never started", len(r.orion.frames))
	}
}

func TestFailureDetectorRearmsOnRecovery(t *testing.T) {
	r := newRig(t)
	r.sw.ArmDetector(0, r.orionA)
	// Heartbeat, silence -> detection; then PHY resumes; then silence again.
	r.e.At(0, "hb", func() { r.sw.HandleFrame(dlPacket(r.phy0A, 0)) })
	r.e.At(30*sim.Millisecond, "resume", func() { r.sw.HandleFrame(dlPacket(r.phy0A, 60)) })
	r.e.RunUntil(100 * sim.Millisecond)
	r.sw.Stop()
	if len(r.orion.frames) != 2 {
		t.Fatalf("notifications = %d, want 2", len(r.orion.frames))
	}
}

func TestDisarmDetector(t *testing.T) {
	r := newRig(t)
	r.sw.ArmDetector(0, r.orionA)
	r.sw.DisarmDetector(0)
	r.e.RunUntil(50 * sim.Millisecond)
	r.sw.Stop()
	if len(r.orion.frames) != 0 {
		t.Fatal("disarmed detector fired")
	}
}

func TestControlPlaneLatencyIsSlow(t *testing.T) {
	r := newRig(t)
	var took sim.Time
	r.e.At(0, "remap", func() {
		r.sw.SetMappingViaControlPlane(0, 1, func(d sim.Time) { took = d })
	})
	r.e.Run()
	if r.sw.Mapping(0) != 1 {
		t.Fatal("control-plane remap never applied")
	}
	if took < 5*sim.Millisecond {
		t.Fatalf("control-plane update took only %v; expected ms-scale", took)
	}
}

func TestNonFronthaulTrafficSwitchesNormally(t *testing.T) {
	r := newRig(t)
	r.e.At(0, "send", func() {
		r.sw.HandleFrame(&netmodel.Frame{
			Src: r.phy0A, Dst: r.orionA,
			Type: netmodel.EtherTypeFAPI, Payload: []byte("fapi"),
		})
	})
	r.e.Run()
	if len(r.orion.frames) != 1 {
		t.Fatal("FAPI frame not switched")
	}
}

func TestUnknownDestinationsDropped(t *testing.T) {
	r := newRig(t)
	r.e.At(0, "send", func() {
		r.sw.HandleFrame(&netmodel.Frame{Dst: 0xDEAD, Type: netmodel.EtherTypeUserData})
		r.sw.HandleFrame(&netmodel.Frame{Src: 0xDEAD, Dst: netmodel.VirtualPHYAddr(0),
			Type: netmodel.EtherTypeECPRI, Payload: ulPacket(0).Payload})
	})
	r.e.Run()
	if r.sw.Stats.DroppedNoRoute == 0 || r.sw.Stats.DroppedUnmappedRU == 0 {
		t.Fatalf("drops not counted: %+v", r.sw.Stats)
	}
}

func TestCommandCodec(t *testing.T) {
	c := &Command{Type: CmdMigrateOnSlot, RU: 3, PHY: 7,
		Slot: fronthaul.SlotID{Frame: 1, Subframe: 2, Slot: 1}, AbsSlot: 999}
	got, err := DecodeCommand(c.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if *got != *c {
		t.Fatalf("%+v vs %+v", got, c)
	}
	if _, err := DecodeCommand([]byte{1}); err == nil {
		t.Fatal("short command accepted")
	}
	if _, err := DecodeCommand(make([]byte, commandWire)); err == nil {
		t.Fatal("zero-type command accepted")
	}
}

func TestResourcesMatchPaperAt256(t *testing.T) {
	u := Resources(256, 256)
	if u.CrossbarPct != 5.2 || u.ALUPct != 10.4 || u.GatewayPct != 14.1 || u.HashBitsPct != 9.5 {
		t.Fatalf("fixed resources: %+v", u)
	}
	if u.SRAMPct < 4.5 || u.SRAMPct > 6.0 {
		t.Fatalf("SRAM at 256 RUs = %.2f%%, want ~5.3%%", u.SRAMPct)
	}
	// Only SRAM grows with scale (§8.6).
	big := Resources(1024, 1024)
	if big.SRAMPct <= u.SRAMPct {
		t.Fatal("SRAM does not scale with entries")
	}
	if big.CrossbarPct != u.CrossbarPct || big.ALUPct != u.ALUPct {
		t.Fatal("non-SRAM resources changed with scale")
	}
}

func TestPacketGeneratorLoad(t *testing.T) {
	r := newRig(t)
	load := r.sw.PacketGeneratorLoad()
	// 450us / 50 = 9us period -> ~111K pps.
	if load < 100e3 || load > 125e3 {
		t.Fatalf("pktgen load = %f pps", load)
	}
}

func TestSwitchString(t *testing.T) {
	r := newRig(t)
	if r.sw.String() == "" {
		t.Fatal("empty String()")
	}
}
