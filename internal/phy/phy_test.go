package phy

import (
	"strings"
	"testing"

	"slingshot/internal/dsp"
	"slingshot/internal/fapi"
	"slingshot/internal/fronthaul"
	"slingshot/internal/netmodel"
	"slingshot/internal/sim"
)

// harness wires a PHY to captured FAPI and fronthaul outputs and drives it
// like an L2 + RU would.
type harness struct {
	e        *sim.Engine
	phy      *PHY
	fapiOut  []fapi.Message
	frames   []*netmodel.Frame
	frameAt  []sim.Time
	crashMsg string
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	h := &harness{e: sim.NewEngine()}
	h.phy = New(h.e, cfg, sim.NewRNG(1))
	h.phy.SendFAPI = func(m fapi.Message) { h.fapiOut = append(h.fapiOut, m) }
	h.phy.SendFronthaul = func(f *netmodel.Frame) {
		h.frames = append(h.frames, f)
		h.frameAt = append(h.frameAt, h.e.Now())
	}
	h.phy.OnCrash = func(reason string) { h.crashMsg = reason }
	return h
}

func (h *harness) configureAndStart(cell uint16) {
	h.phy.HandleFAPI(&fapi.ConfigRequest{CellID: cell, NumPRB: 273, MantissaBits: 9, Seed: 99})
	h.phy.HandleFAPI(&fapi.StartRequest{CellID: cell})
	h.phy.Start()
}

// feedNullConfigs schedules null UL/DL configs for every slot in [0, n),
// sent one slot ahead like a real L2.
func (h *harness) feedNullConfigs(cell uint16, n uint64) {
	for s := uint64(0); s < n; s++ {
		slot := s
		at := sim.Time(0)
		if slot > 0 {
			at = SlotStart(slot-1) + 50*sim.Microsecond
		}
		h.e.At(at, "test.feed", func() {
			h.phy.HandleFAPI(fapi.NullUL(cell, slot))
			h.phy.HandleFAPI(fapi.NullDL(cell, slot))
		})
	}
}

func (h *harness) messagesOfKind(k fapi.Kind) []fapi.Message {
	var out []fapi.Message
	for _, m := range h.fapiOut {
		if m.Kind() == k {
			out = append(out, m)
		}
	}
	return out
}

func TestPHYConfigResponds(t *testing.T) {
	h := newHarness(t, DefaultConfig(1))
	h.phy.HandleFAPI(&fapi.ConfigRequest{CellID: 5, Seed: 1})
	resp := h.messagesOfKind(fapi.KindConfigResponse)
	if len(resp) != 1 || !resp[0].(*fapi.ConfigResponse).OK {
		t.Fatalf("no positive CONFIG.response: %v", resp)
	}
	if !h.phy.CellConfigured(5) || h.phy.CellStarted(5) {
		t.Fatal("cell state wrong after configure")
	}
	h.phy.HandleFAPI(&fapi.StartRequest{CellID: 5})
	if !h.phy.CellStarted(5) {
		t.Fatal("cell not started")
	}
}

func TestPHYHeartbeatEverySlot(t *testing.T) {
	h := newHarness(t, DefaultConfig(1))
	h.configureAndStart(0)
	h.feedNullConfigs(0, 20)
	h.e.RunUntil(20 * TTI)

	var heartbeats int
	for _, f := range h.frames {
		pkt, err := fronthaul.Decode(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if pkt.Type == fronthaul.MsgRTControl && pkt.Dir == fronthaul.Downlink {
			heartbeats++
			if f.Dst != netmodel.RUAddr(0) {
				t.Fatalf("heartbeat to %v", f.Dst)
			}
		}
	}
	if heartbeats < 19 {
		t.Fatalf("heartbeats = %d over 20 slots", heartbeats)
	}
	// Heartbeat inter-packet gap must stay under 500us + jitter window.
	maxGap := sim.Time(0)
	for i := 1; i < len(h.frameAt); i++ {
		if g := h.frameAt[i] - h.frameAt[i-1]; g > maxGap {
			maxGap = g
		}
	}
	limit := TTI + DefaultConfig(1).HeartbeatJitter
	if maxGap > limit {
		t.Fatalf("max heartbeat gap %v exceeds %v", maxGap, limit)
	}
}

func TestPHYSlotIndications(t *testing.T) {
	h := newHarness(t, DefaultConfig(1))
	h.configureAndStart(0)
	h.feedNullConfigs(0, 10)
	h.e.RunUntil(10 * TTI)
	inds := h.messagesOfKind(fapi.KindSlotIndication)
	if len(inds) < 9 {
		t.Fatalf("slot indications = %d", len(inds))
	}
}

func TestPHYCrashesWithoutFAPI(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.MissedConfigLimit = 4
	h := newHarness(t, cfg)
	h.configureAndStart(0)
	// No configs fed at all.
	h.e.RunUntil(20 * TTI)
	if !h.phy.Crashed() {
		t.Fatal("PHY survived without FAPI configs")
	}
	if !strings.Contains(h.crashMsg, "no FAPI configs") {
		t.Fatalf("crash reason %q", h.crashMsg)
	}
	errs := h.messagesOfKind(fapi.KindErrorIndication)
	if len(errs) != 1 || errs[0].(*fapi.ErrorIndication).Code != fapi.ErrCodeMissingConfig {
		t.Fatalf("error indications: %v", errs)
	}
	// No heartbeats after the crash slot (two control packets per slot).
	if h.phy.Stats.HeartbeatsSent > 2*uint64(cfg.MissedConfigLimit) {
		t.Fatalf("heartbeats after crash: %d", h.phy.Stats.HeartbeatsSent)
	}
}

func TestPHYNullConfigsKeepAlive(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.MissedConfigLimit = 4
	h := newHarness(t, cfg)
	h.configureAndStart(0)
	h.feedNullConfigs(0, 100)
	h.e.RunUntil(100 * TTI)
	if h.phy.Crashed() {
		t.Fatal("PHY crashed despite null configs")
	}
	if h.phy.Stats.NullSlots < 90 {
		t.Fatalf("NullSlots = %d", h.phy.Stats.NullSlots)
	}
	// Null slots must not cost decode work.
	if h.phy.Stats.WorkUnits != 0 {
		t.Fatalf("null slots consumed %d work units", h.phy.Stats.WorkUnits)
	}
}

func TestPHYKillStopsEverything(t *testing.T) {
	h := newHarness(t, DefaultConfig(1))
	h.configureAndStart(0)
	h.feedNullConfigs(0, 20)
	h.e.At(5*TTI+10, "kill", func() { h.phy.Kill() })
	h.e.RunUntil(20 * TTI)
	if !h.phy.Crashed() {
		t.Fatal("Kill did not crash")
	}
	for i, at := range h.frameAt {
		_ = i
		if at > 6*TTI {
			t.Fatalf("frame sent at %v after kill", at)
		}
	}
}

func TestPHYDownlinkTransmission(t *testing.T) {
	h := newHarness(t, DefaultConfig(1))
	h.configureAndStart(0)
	h.feedNullConfigs(0, 10)
	tb := []byte("downlink transport block")
	pdu := fapi.PDU{
		UEID: 3, HARQID: 0, NewData: true,
		Alloc:   dsp.Allocation{UEID: 3, StartPRB: 0, NumPRB: 10, Mod: dsp.QAM16},
		TBBytes: uint32(len(tb)),
	}
	h.e.At(SlotStart(1)+100*sim.Microsecond, "dl", func() {
		h.phy.HandleFAPI(&fapi.DLConfig{CellID: 0, Slot: 2, PDUs: []fapi.PDU{pdu}})
		h.phy.HandleFAPI(&fapi.TxData{CellID: 0, Slot: 2, Payloads: []fapi.TBPayload{{UEID: 3, Data: tb}}})
	})
	h.e.RunUntil(5 * TTI)

	var uplane *fronthaul.Packet
	for _, f := range h.frames {
		pkt, _ := fronthaul.Decode(f.Payload)
		if pkt != nil && pkt.Type == fronthaul.MsgIQData && pkt.Dir == fronthaul.Downlink {
			uplane = pkt
			if f.Virtual <= len(f.Payload) {
				t.Errorf("U-plane frame Virtual=%d not representing full allocation (payload %d)",
					f.Virtual, len(f.Payload))
			}
		}
	}
	if uplane == nil {
		t.Fatal("no DL U-plane packet emitted")
	}
	if uplane.Section != 3 || string(uplane.Aux) != string(tb) {
		t.Fatalf("U-plane packet: section=%d aux=%q", uplane.Section, uplane.Aux)
	}
	// The C-plane packet for slot 2 must carry the DL section.
	found := false
	for _, f := range h.frames {
		pkt, _ := fronthaul.Decode(f.Payload)
		if pkt == nil || pkt.Type != fronthaul.MsgRTControl {
			continue
		}
		secs, err := fronthaul.DecodeSections(pkt.Payload)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range secs {
			if s.UEID == 3 && s.Dir == fronthaul.Downlink && s.GrantSlot == 2 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("DL section not announced in C-plane")
	}
}

// sendULPacket emulates the RU delivering a UE's uplink block to the PHY.
func sendULPacket(t *testing.T, h *harness, codec *Codec, cell, ue uint16, slot uint64, tb []byte, m dsp.Modulation, snr float64) {
	t.Helper()
	iq := PadSymbols(codec.EncodeBlock(tb, slot, ue, m))
	rx := dsp.NewChannel(snr, 0, 0, sim.NewRNG(slot)).Transmit(iq)
	pkt, err := fronthaul.NewUplinkIQ(cell, 0, fronthaul.SlotFromCounter(slot), 0, 10, rx, 9)
	if err != nil {
		t.Fatal(err)
	}
	pkt.Section = ue
	pkt.Aux = tb
	h.phy.HandleFrame(&netmodel.Frame{
		Src: netmodel.RUAddr(cell), Dst: netmodel.PHYAddr(1),
		Type: netmodel.EtherTypeECPRI, Payload: pkt.SerializePooled(),
	})
}

func TestPHYUplinkDecodePipeline(t *testing.T) {
	h := newHarness(t, DefaultConfig(1))
	h.configureAndStart(0)
	h.feedNullConfigs(0, 12)
	codec := NewCodec(0, 0, 9, 99) // must match cell seed in configureAndStart

	tb := []byte("uplink payload bytes")
	ulSlot := uint64(4) // UL slot in DDDSU
	pdu := fapi.PDU{
		UEID: 7, HARQID: 1, NewData: true,
		Alloc:   dsp.Allocation{UEID: 7, StartPRB: 0, NumPRB: 10, Mod: dsp.QPSK},
		TBBytes: uint32(len(tb)),
	}
	h.e.At(SlotStart(3)+100*sim.Microsecond, "ulcfg", func() {
		h.phy.HandleFAPI(&fapi.ULConfig{CellID: 0, Slot: ulSlot, PDUs: []fapi.PDU{pdu}})
	})
	h.e.At(SlotStart(ulSlot)+200*sim.Microsecond, "ulpkt", func() {
		sendULPacket(t, h, codec, 0, 7, ulSlot, tb, dsp.QPSK, 30)
	})
	h.e.RunUntil(12 * TTI)

	rx := h.messagesOfKind(fapi.KindRxData)
	if len(rx) != 1 {
		t.Fatalf("RX_DATA count = %d", len(rx))
	}
	got := rx[0].(*fapi.RxData)
	if got.Slot != ulSlot || len(got.Payloads) != 1 || string(got.Payloads[0].Data) != string(tb) {
		t.Fatalf("RX_DATA = %+v", got)
	}
	crcs := h.messagesOfKind(fapi.KindCRCIndication)
	if len(crcs) != 1 {
		t.Fatalf("CRC indications = %d", len(crcs))
	}
	crc := crcs[0].(*fapi.CRCIndication)
	if len(crc.Results) != 1 || !crc.Results[0].OK || crc.Results[0].UEID != 7 {
		t.Fatalf("CRC = %+v", crc.Results)
	}
	// Pipeline: results must arrive during slot ulSlot+2 (3-slot pipeline).
	if h.phy.Stats.DecodeOK != 1 {
		t.Fatalf("DecodeOK = %d", h.phy.Stats.DecodeOK)
	}
}

func TestPHYUplinkDTXReportsCRCFail(t *testing.T) {
	h := newHarness(t, DefaultConfig(1))
	h.configureAndStart(0)
	h.feedNullConfigs(0, 12)
	pdu := fapi.PDU{
		UEID: 7, HARQID: 1, NewData: true,
		Alloc:   dsp.Allocation{UEID: 7, StartPRB: 0, NumPRB: 10, Mod: dsp.QPSK},
		TBBytes: 100,
	}
	h.e.At(SlotStart(3)+100*sim.Microsecond, "ulcfg", func() {
		h.phy.HandleFAPI(&fapi.ULConfig{CellID: 0, Slot: 4, PDUs: []fapi.PDU{pdu}})
	})
	// No UL packet ever arrives (fronthaul lost / rerouted).
	h.e.RunUntil(12 * TTI)
	crcs := h.messagesOfKind(fapi.KindCRCIndication)
	if len(crcs) != 1 {
		t.Fatalf("CRC indications = %d", len(crcs))
	}
	res := crcs[0].(*fapi.CRCIndication).Results
	if len(res) != 1 || res[0].OK {
		t.Fatalf("DTX not reported as CRC fail: %+v", res)
	}
	if len(h.messagesOfKind(fapi.KindRxData)) != 0 {
		t.Fatal("RX_DATA for DTX")
	}
}

func TestPHYGrantAnnouncedInCPlane(t *testing.T) {
	h := newHarness(t, DefaultConfig(1))
	h.configureAndStart(0)
	h.feedNullConfigs(0, 10)
	pdu := fapi.PDU{
		UEID: 2, HARQID: 0, NewData: true,
		Alloc:   dsp.Allocation{UEID: 2, StartPRB: 0, NumPRB: 5, Mod: dsp.QPSK},
		TBBytes: 64,
	}
	h.e.At(SlotStart(2)+100*sim.Microsecond, "ulcfg", func() {
		h.phy.HandleFAPI(&fapi.ULConfig{CellID: 0, Slot: 9, PDUs: []fapi.PDU{pdu}})
	})
	h.e.RunUntil(6 * TTI)
	for _, f := range h.frames {
		pkt, _ := fronthaul.Decode(f.Payload)
		if pkt == nil || pkt.Type != fronthaul.MsgRTControl {
			continue
		}
		secs, _ := fronthaul.DecodeSections(pkt.Payload)
		for _, s := range secs {
			if s.UEID == 2 && s.Dir == fronthaul.Uplink && s.GrantSlot == 9 {
				return // announced
			}
		}
	}
	t.Fatal("UL grant never announced in C-plane")
}

func TestPHYDiscardSoftState(t *testing.T) {
	h := newHarness(t, DefaultConfig(1))
	h.configureAndStart(0)
	h.feedNullConfigs(0, 12)
	codec := NewCodec(0, 0, 9, 99)
	tb := []byte("will fail at low snr")
	pdu := fapi.PDU{
		UEID: 7, HARQID: 1, NewData: true,
		Alloc:   dsp.Allocation{UEID: 7, StartPRB: 0, NumPRB: 10, Mod: dsp.QAM256},
		TBBytes: uint32(len(tb)),
	}
	h.e.At(SlotStart(3)+100*sim.Microsecond, "ulcfg", func() {
		h.phy.HandleFAPI(&fapi.ULConfig{CellID: 0, Slot: 4, PDUs: []fapi.PDU{pdu}})
	})
	h.e.At(SlotStart(4)+200*sim.Microsecond, "ulpkt", func() {
		// 256QAM at 5 dB will fail, leaving an active HARQ buffer.
		sendULPacket(t, h, codec, 0, 7, 4, tb, dsp.QAM256, 5)
	})
	h.e.RunUntil(12 * TTI)
	if h.phy.Stats.DecodeFail == 0 {
		t.Fatal("expected a decode failure")
	}
	if n := h.phy.DiscardSoftState(); n != 1 {
		t.Fatalf("DiscardSoftState interrupted %d, want 1", n)
	}
	if h.phy.HARQInterrupted() != 1 {
		t.Fatalf("HARQInterrupted = %d", h.phy.HARQInterrupted())
	}
}

func TestPHYCellItersFromConfig(t *testing.T) {
	h := newHarness(t, DefaultConfig(1))
	h.phy.HandleFAPI(&fapi.ConfigRequest{CellID: 1, Seed: 5, FECIters: 16})
	if got := h.phy.CellIters(1); got != 16 {
		t.Fatalf("CellIters = %d", got)
	}
	h.phy.HandleFAPI(&fapi.ConfigRequest{CellID: 2, Seed: 5})
	if got := h.phy.CellIters(2); got != DefaultFECIter {
		t.Fatalf("default CellIters = %d", got)
	}
	if got := h.phy.CellIters(9); got != 0 {
		t.Fatalf("missing cell CellIters = %d", got)
	}
}

func TestPHYIgnoresTrafficWhenCrashed(t *testing.T) {
	h := newHarness(t, DefaultConfig(1))
	h.configureAndStart(0)
	h.phy.Kill()
	h.phy.HandleFAPI(fapi.NullUL(0, 1))
	h.phy.HandleFrame(&netmodel.Frame{Type: netmodel.EtherTypeECPRI})
	if h.phy.Stats.FronthaulRx != 0 {
		t.Fatal("crashed PHY processed a frame")
	}
}
