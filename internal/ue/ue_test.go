package ue

import (
	"testing"

	"slingshot/internal/dsp"
	"slingshot/internal/fronthaul"
	"slingshot/internal/phy"
	"slingshot/internal/rlc"
	"slingshot/internal/sim"
)

const cellSeed = 0xCAFE

func newUE(e *sim.Engine, snr float64) *UE {
	cfg := DefaultConfig(1, 0, "test-ue", snr)
	cfg.FadeStd = 0
	u := New(e, cfg, sim.NewRNG(3))
	u.SetCellParams(cellSeed, 9)
	return u
}

func ulGrant(slot uint64, tbBytes uint32) fronthaul.Section {
	return fronthaul.Section{
		UEID: 1, Dir: fronthaul.Uplink, NumPRB: 10,
		ModBits: uint8(dsp.QPSK), HARQID: 3, NewData: true,
		TBBytes: tbBytes, GrantSlot: slot,
	}
}

func dlAssign(slot uint64) fronthaul.Section {
	return fronthaul.Section{
		UEID: 1, Dir: fronthaul.Downlink, StartPRB: 0, NumPRB: 10,
		ModBits: uint8(dsp.QAM16), HARQID: 2, NewData: true,
		TBBytes: 200, GrantSlot: slot,
	}
}

func TestAttachAndState(t *testing.T) {
	e := sim.NewEngine()
	u := newUE(e, 25)
	if u.State() != StateIdle || u.Connected() {
		t.Fatal("initial state wrong")
	}
	var transitions []State
	u.OnStateChange = func(s State) { transitions = append(transitions, s) }
	u.Attach()
	if !u.Connected() || u.Stats.Attaches != 1 {
		t.Fatal("attach failed")
	}
	if len(transitions) != 1 || transitions[0] != StateConnected {
		t.Fatalf("transitions = %v", transitions)
	}
	if StateIdle.String() != "idle" || StateConnected.String() != "connected" || StateDetached.String() != "detached" {
		t.Fatal("state strings")
	}
	u.Stop()
}

func TestUplinkTransmissionOnGrant(t *testing.T) {
	e := sim.NewEngine()
	u := newUE(e, 30)
	u.Attach()
	u.SendUplink([]byte("payload"))
	u.DeliverControl(10, []fronthaul.Section{ulGrant(14, 100)})

	iq, aux, ok := u.PullUplink(14)
	if !ok {
		t.Fatal("no transmission despite grant")
	}
	if len(aux) == 0 || len(iq) == 0 {
		t.Fatal("empty transmission")
	}
	if u.Stats.ULBlocksSent != 1 {
		t.Fatalf("ULBlocksSent = %d", u.Stats.ULBlocksSent)
	}
	// The grant is consumed.
	if _, _, again := u.PullUplink(14); again {
		t.Fatal("grant reusable")
	}
	// The transmitted block decodes at the PHY-side codec.
	codec := phy.NewCodec(0, 0, 9, cellSeed)
	out := codec.DecodeBlock(iq, 14, 1, dsp.QPSK, nil, 0, true, 8)
	if !out.OK {
		t.Fatalf("PHY failed to decode UE transmission (SNR est %.1f)", out.SNRdB)
	}
	u.Stop()
}

func TestUplinkRetransmissionUsesStoredTB(t *testing.T) {
	e := sim.NewEngine()
	u := newUE(e, 30)
	u.Attach()
	u.SendUplink([]byte("first"))
	u.DeliverControl(10, []fronthaul.Section{ulGrant(14, 100)})
	_, aux1, _ := u.PullUplink(14)

	retx := ulGrant(19, 100)
	retx.NewData = false
	retx.Rv = 1
	u.DeliverControl(15, []fronthaul.Section{retx})
	u.SendUplink([]byte("second")) // must NOT be consumed by the retx
	_, aux2, ok := u.PullUplink(19)
	if !ok {
		t.Fatal("no retransmission")
	}
	if string(aux1) != string(aux2) {
		t.Fatal("retransmission sent different TB bytes")
	}
	u.Stop()
}

func TestNoTransmissionWithoutGrantOrWhenDetached(t *testing.T) {
	e := sim.NewEngine()
	u := newUE(e, 30)
	u.Attach()
	if _, _, ok := u.PullUplink(4); ok {
		t.Fatal("transmitted without grant")
	}
	u.DeliverControl(2, []fronthaul.Section{ulGrant(4, 100)})
	u.ForceReattach() // detach
	if _, _, ok := u.PullUplink(4); ok {
		t.Fatal("transmitted while detached")
	}
	u.Stop()
}

// deliverDL pushes one downlink transport block through the UE's receive
// chain using a PHY-side codec, like the RU would.
func deliverDL(t *testing.T, u *UE, slot uint64, tb []byte) {
	t.Helper()
	sec := dlAssign(slot)
	u.DeliverControl(slot, []fronthaul.Section{sec})
	codec := phy.NewCodec(0, 0, 9, cellSeed)
	iq := phy.PadSymbols(codec.EncodeBlock(tb, slot, 1, dsp.QAM16))
	pkt, err := fronthaul.NewDownlinkIQ(0, 0, fronthaul.SlotFromCounter(slot), 0, 10, iq, 9)
	if err != nil {
		t.Fatal(err)
	}
	pkt.Section = 1
	pkt.Aux = tb
	u.DeliverDownlink(slot, pkt)
}

func TestDownlinkDecodeAndDelivery(t *testing.T) {
	e := sim.NewEngine()
	u := newUE(e, 30)
	u.Attach()
	var got [][]byte
	u.OnDownlink = func(p []byte) { got = append(got, p) }

	// Build an RLC PDU holding one packet, as the L2 would.
	l2tx := newSegmenter()
	l2tx.Enqueue([]byte("hello ue"))
	pdu := l2tx.BuildPDU(200)
	deliverDL(t, u, 5, pdu)

	if u.Stats.DLBlocksOK != 1 {
		t.Fatalf("DLBlocksOK = %d (fails %d)", u.Stats.DLBlocksOK, u.Stats.DLBlocksFail)
	}
	if len(got) != 1 || string(got[0]) != "hello ue" {
		t.Fatalf("delivered %q", got)
	}
	// ACK queued for the RU to collect.
	uci := u.CollectUCI(nil)
	foundAck := false
	for _, r := range uci {
		if r.HasFeedback && r.ACK && r.HARQID == 2 {
			foundAck = true
		}
	}
	if !foundAck {
		t.Fatalf("no ACK in UCI: %+v", uci)
	}
	u.Stop()
}

func TestDownlinkLowSNRNacks(t *testing.T) {
	e := sim.NewEngine()
	u := newUE(e, -3) // hopeless channel for 16QAM
	u.Attach()
	l2tx := newSegmenter()
	l2tx.Enqueue([]byte("zzz"))
	deliverDL(t, u, 5, l2tx.BuildPDU(200))
	if u.Stats.DLBlocksFail != 1 {
		t.Fatalf("DLBlocksFail = %d", u.Stats.DLBlocksFail)
	}
	nack := false
	for _, r := range u.CollectUCI(nil) {
		if r.HasFeedback && !r.ACK {
			nack = true
		}
	}
	if !nack {
		t.Fatal("no NACK for failed decode")
	}
	u.Stop()
}

func TestRLFDeclaredAfterSyncLoss(t *testing.T) {
	e := sim.NewEngine()
	u := newUE(e, 25)
	u.Cfg.ReattachDelay = 500 * sim.Millisecond
	u.Cfg.ReattachJitter = 0
	attachCalls := 0
	u.TryAttach = func(x *UE) bool { attachCalls++; return true }
	u.Attach()
	// Sync except during a 100-200 ms outage window.
	stop := e.Every(0, 5*sim.Millisecond, "sync", func() {
		now := e.Now()
		if now < 100*sim.Millisecond || now > 200*sim.Millisecond {
			u.DeliverControl(phy.SlotAt(now), nil)
		}
	})
	e.RunUntil(170 * sim.Millisecond)
	if u.State() != StateDetached {
		t.Fatalf("state = %v 70ms after sync loss at RLF=50ms", u.State())
	}
	if u.Stats.RLFs != 1 {
		t.Fatalf("RLFs = %d", u.Stats.RLFs)
	}
	e.RunUntil(2 * sim.Second)
	stop()
	if !u.Connected() || attachCalls != 1 {
		t.Fatalf("reattach: connected=%v calls=%d", u.Connected(), attachCalls)
	}
	if u.Stats.Attaches != 2 {
		t.Fatalf("Attaches = %d", u.Stats.Attaches)
	}
	u.Stop()
}

func TestReattachRetriesUntilCellAlive(t *testing.T) {
	e := sim.NewEngine()
	u := newUE(e, 25)
	u.Cfg.ReattachDelay = 100 * sim.Millisecond
	u.Cfg.ReattachJitter = 0
	ready := false
	calls := 0
	u.TryAttach = func(x *UE) bool { calls++; return ready }
	u.Attach()
	e.RunUntil(60 * sim.Millisecond) // RLF at ~50ms (no sync ever delivered)
	if u.Connected() {
		t.Fatal("still connected without sync")
	}
	// The cell comes up at 500 ms and broadcasts sync from then on.
	e.At(500*sim.Millisecond, "cell-up", func() {
		ready = true
		e.Every(0, 5*sim.Millisecond, "sync", func() {
			u.DeliverControl(phy.SlotAt(e.Now()), nil)
		})
	})
	e.RunUntil(1 * sim.Second)
	if !u.Connected() {
		t.Fatal("never reattached once cell ready")
	}
	if calls < 2 {
		t.Fatalf("TryAttach calls = %d, want retries", calls)
	}
	u.Stop()
}

func TestForceReattachKeepsRLFCountClean(t *testing.T) {
	e := sim.NewEngine()
	u := newUE(e, 25)
	u.Cfg.ReattachDelay = 50 * sim.Millisecond
	u.Cfg.ReattachJitter = 0
	u.TryAttach = func(x *UE) bool { return true }
	u.Attach()
	u.ForceReattach()
	if u.State() != StateDetached {
		t.Fatal("ForceReattach did not detach")
	}
	if u.Stats.RLFs != 0 {
		t.Fatalf("RLFs = %d after ForceReattach (context loss, not radio failure)", u.Stats.RLFs)
	}
	e.RunUntil(1 * sim.Second)
	if !u.Connected() {
		t.Fatal("never reattached")
	}
	u.Stop()
}

func TestBearersResetOnDetach(t *testing.T) {
	e := sim.NewEngine()
	u := newUE(e, 25)
	u.Attach()
	u.SendUplink([]byte("stale"))
	u.DeliverControl(2, []fronthaul.Section{ulGrant(4, 100)})
	u.ForceReattach()
	if u.ULBacklog() != 0 {
		t.Fatal("UL backlog survived detach")
	}
	if _, _, ok := u.PullUplink(4); ok {
		t.Fatal("grant survived detach")
	}
	u.Stop()
}

func TestCQIReportingPeriodic(t *testing.T) {
	e := sim.NewEngine()
	u := newUE(e, 25)
	u.Cfg.CQIPeriodSlots = 5
	u.Attach()
	// Prime the CQI filter with one decode.
	l2tx := newSegmenter()
	l2tx.Enqueue([]byte("x"))
	deliverDL(t, u, 5, l2tx.BuildPDU(100))
	u.CollectUCI(nil)
	// Control on a multiple of the period queues a CQI-only report.
	u.DeliverControl(10, nil)
	found := false
	for _, r := range u.CollectUCI(nil) {
		if !r.HasFeedback && r.CQIdB > 15 {
			found = true
		}
	}
	if !found {
		t.Fatal("no periodic CQI report")
	}
	u.Stop()
}

func TestStaleGrantsGarbageCollected(t *testing.T) {
	e := sim.NewEngine()
	u := newUE(e, 25)
	u.Attach()
	u.DeliverControl(2, []fronthaul.Section{ulGrant(4, 100)})
	// 30 slots later the grant must be gone.
	u.DeliverControl(34, nil)
	if _, _, ok := u.PullUplink(4); ok {
		t.Fatal("stale grant survived GC")
	}
	u.Stop()
}

// newSegmenter builds RLC PDUs the way the L2 does for downlink.
func newSegmenter() *rlc.Tx { return rlc.NewTx() }
