package phy

import (
	"testing"

	"slingshot/internal/dsp"
	"slingshot/internal/fapi"
	"slingshot/internal/fronthaul"
	"slingshot/internal/mem"
	"slingshot/internal/netmodel"
	"slingshot/internal/par"
	"slingshot/internal/sim"
)

// TestUplinkSlotSteadyStateAllocs drives a configured PHY through full
// DDDSU cycles — null configs every slot, a granted UL transmission with a
// real decoded transport block each uplink slot — and asserts the
// steady-state allocation bill per 5-slot cycle stays tiny. Everything the
// PHY leases per slot (FAPI messages, IQ/LLR staging, fronthaul packets and
// payloads, pending-UL containers) must come from pools, and the received
// UL packet decodes into a stack-local fronthaul.Packet. The residue is the
// frame structs this test's fronthaul sink keeps from the pool.
func TestUplinkSlotSteadyStateAllocs(t *testing.T) {
	if mem.DetectorArmed() {
		t.Skip("pool double-free detector armed (-race); its bookkeeping allocates")
	}
	prevPool := mem.SetEnabled(true)
	defer mem.SetEnabled(prevPool)
	prevW := par.SetWorkers(1) // keep decode inline so the bill is stable
	defer par.SetWorkers(prevW)

	e := sim.NewEngine()
	p := New(e, DefaultConfig(1), sim.NewRNG(1))
	// The sink owns delivered messages outright, like the PHY-side Orion
	// (it encodes and releases); frames hand their wire buffer over.
	p.SendFAPI = func(m fapi.Message) { fapi.ReleaseDeep(m) }
	p.SendFronthaul = func(f *netmodel.Frame) { mem.PutBytes(f.Payload) }
	p.HandleFAPI(&fapi.ConfigRequest{CellID: 0, NumPRB: 273, MantissaBits: 9, Seed: 99})
	p.HandleFAPI(&fapi.StartRequest{CellID: 0})
	p.Start()

	codec := NewCodec(0, 0, 9, 99)
	tb := make([]byte, 32)
	for i := range tb {
		tb[i] = byte(3 * i)
	}

	const warmSlots = 30 // past the slot-20 GC threshold
	const cycles = 20
	totalSlots := uint64(warmSlots + (cycles+2)*5)

	// Pre-schedule every feed so the measured loop only executes events.
	for s := uint64(0); s < totalSlots; s++ {
		slot := s
		at := sim.Time(0)
		if slot > 0 {
			at = SlotStart(slot-1) + 50*sim.Microsecond
		}
		if KindOf(slot) == SlotUL {
			e.At(at, "test.ulcfg", func() {
				ul := fapi.GetULConfig(0, slot)
				ul.PDUs = append(ul.PDUs, fapi.PDU{
					UEID: 7, HARQID: 1, NewData: true,
					Alloc:   dsp.Allocation{UEID: 7, StartPRB: 0, NumPRB: 10, Mod: dsp.QPSK},
					TBBytes: uint32(len(tb)),
				})
				p.HandleFAPI(ul)
				p.HandleFAPI(fapi.GetDLConfig(0, slot))
			})
			// The UE's transmission, pre-built: IQ, channel, packet, frame.
			iq := PadSymbols(codec.EncodeBlock(tb, slot, 7, dsp.QPSK))
			rx := dsp.NewChannel(30, 0, 0, sim.NewRNG(slot)).Transmit(iq)
			pkt, err := fronthaul.NewUplinkIQ(0, 0, fronthaul.SlotFromCounter(slot), 0, 10, rx, 9)
			if err != nil {
				t.Fatal(err)
			}
			pkt.Section = 7
			pkt.Aux = tb
			frame := &netmodel.Frame{
				Src: netmodel.RUAddr(0), Dst: netmodel.PHYAddr(1),
				Type: netmodel.EtherTypeECPRI, Payload: pkt.SerializePooled(),
			}
			e.At(SlotStart(slot)+200*sim.Microsecond, "test.ulpkt", func() {
				p.HandleFrame(frame)
			})
		} else {
			e.At(at, "test.nullcfg", func() {
				p.HandleFAPI(fapi.GetULConfig(0, slot))
				p.HandleFAPI(fapi.GetDLConfig(0, slot))
			})
		}
	}

	mark := uint64(warmSlots)
	e.RunUntil(SlotStart(mark))
	avg := testing.AllocsPerRun(cycles, func() {
		mark += 5
		e.RunUntil(SlotStart(mark))
	})
	t.Logf("allocs per 5-slot cycle: %.1f", avg)
	// Per cycle (9.0 measured): the sink above takes each sent frame's
	// wire buffer but drops the frame struct, so the PHY's transmit frames
	// are fresh allocations; a sink that calls netmodel.ReleaseFrame
	// measures 1.0. The bound leaves one allocation of slack; a pooled path
	// regressing to per-slot IQ/LLR/payload allocation blows past it.
	// TestULControlFrameAllocs pins the receive decode itself at zero.
	if avg > 10 {
		t.Fatalf("steady-state uplink cycle allocates %.1f times, want <= 10", avg)
	}
}

// nullSlotPHY starts one cell on a PHY whose sinks release everything they
// receive, as the PHY-side Orion and the switch do, and returns a step
// that feeds the next slot's null configs one slot ahead (like the L2) and
// runs the PHY through one slot.
func nullSlotPHY() (step func()) {
	e := sim.NewEngine()
	p := New(e, DefaultConfig(1), sim.NewRNG(1))
	p.SendFAPI = func(m fapi.Message) { fapi.ReleaseDeep(m) }
	p.SendFronthaul = netmodel.ReleaseFrame
	p.HandleFAPI(&fapi.ConfigRequest{CellID: 0, NumPRB: 273, MantissaBits: 9, Seed: 99})
	p.HandleFAPI(&fapi.StartRequest{CellID: 0})
	p.HandleFAPI(fapi.GetULConfig(0, 0))
	p.HandleFAPI(fapi.GetDLConfig(0, 0))
	p.Start()
	slot := uint64(0)
	return func() {
		p.HandleFAPI(fapi.GetULConfig(0, slot+1))
		p.HandleFAPI(fapi.GetDLConfig(0, slot+1))
		slot++
		e.RunUntil(SlotStart(slot))
	}
}

// BenchmarkPHYNullSlot is the per-slot host cost of one started cell with
// nothing scheduled: slot indication, two C-plane packets, the slot rings'
// lookups and GC.
func BenchmarkPHYNullSlot(b *testing.B) {
	step := nullSlotPHY()
	for range 2 * RingSlots {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		step()
	}
}

// TestNullSlotSteadyStateAllocs pins BenchmarkPHYNullSlot's step at zero
// allocations once the pools and slot rings are warm.
func TestNullSlotSteadyStateAllocs(t *testing.T) {
	if mem.DetectorArmed() {
		t.Skip("pool double-free detector armed (-race); its bookkeeping allocates")
	}
	defer mem.SetEnabled(mem.SetEnabled(true))
	step := nullSlotPHY()
	for range 2 * RingSlots {
		step()
	}
	if avg := testing.AllocsPerRun(100, step); avg != 0 {
		t.Fatalf("steady-state null slot allocates %.2f times, want 0", avg)
	}
}

// TestULControlFrameAllocs pins a warm PHY.HandleFrame of the RU's UL
// C-plane status frame (carrying UCI reports) at zero allocations: the
// packet decodes into a stack-local fronthaul.Packet, the UCI indication is
// leased, and the frame and its wire buffer go back to their pools.
func TestULControlFrameAllocs(t *testing.T) {
	if mem.DetectorArmed() {
		t.Skip("pool double-free detector armed (-race); its bookkeeping allocates")
	}
	defer mem.SetEnabled(mem.SetEnabled(true))
	e := sim.NewEngine()
	p := New(e, DefaultConfig(1), sim.NewRNG(1))
	forwarded := 0
	p.SendFAPI = func(m fapi.Message) {
		if _, ok := m.(*fapi.UCIIndication); ok {
			forwarded++
		}
		fapi.ReleaseDeep(m)
	}
	p.SendFronthaul = netmodel.ReleaseFrame
	p.HandleFAPI(&fapi.ConfigRequest{CellID: 0, NumPRB: 273, MantissaBits: 9, Seed: 99})
	p.HandleFAPI(&fapi.StartRequest{CellID: 0})

	status := fronthaul.NewControl(0, 0, fronthaul.Uplink, fronthaul.SlotFromCounter(0), 0)
	status.Aux = fapi.EncodeUCIListPooled([]fapi.UCI{
		{UEID: 7, CQIdB: 12},
		{UEID: 9, HARQID: 2, HasFeedback: true, ACK: true, CQIdB: 20},
	})
	deliver := func() {
		f := netmodel.GetFrame()
		f.Type = netmodel.EtherTypeECPRI
		f.Payload = status.SerializePooled()
		p.HandleFrame(f)
	}
	deliver()
	before := forwarded
	if avg := testing.AllocsPerRun(100, deliver); avg != 0 {
		t.Fatalf("warm UL C-plane HandleFrame allocates %.2f times, want 0", avg)
	}
	if got := forwarded - before; got != 101 {
		t.Fatalf("%d UCI indications forwarded for 101 frames", got)
	}
}

// TestUndrainedBlockReleasesSidecar runs the release path for an uplink
// block that never reaches drainUL: its frame arrives after the slot's
// pipeline drain, so the block waits in the pending ring until the slot-20
// GC evicts it. The eviction must return the block's pooled TB sidecar
// copy along with its block buffers; with everything else released by the
// sinks, no byte lease may be left outstanding.
func TestUndrainedBlockReleasesSidecar(t *testing.T) {
	defer mem.SetEnabled(mem.SetEnabled(true))
	stop := mem.TrackLeases()
	defer stop()

	e := sim.NewEngine()
	p := New(e, DefaultConfig(1), sim.NewRNG(1))
	p.SendFAPI = func(m fapi.Message) { fapi.ReleaseDeep(m) }
	p.SendFronthaul = netmodel.ReleaseFrame
	p.HandleFAPI(&fapi.ConfigRequest{CellID: 0, NumPRB: 273, MantissaBits: 9, Seed: 99})
	p.HandleFAPI(&fapi.StartRequest{CellID: 0})

	const ulSlot = 9
	if KindOf(ulSlot) != SlotUL {
		t.Fatalf("slot %d is not an uplink slot", ulSlot)
	}
	tb := []byte("a transport block that arrives too late")
	feed := func(slot uint64) {
		ul := fapi.GetULConfig(0, slot)
		if slot == ulSlot {
			ul.PDUs = append(ul.PDUs, fapi.PDU{
				UEID: 7, HARQID: 1, NewData: true,
				Alloc:   dsp.Allocation{UEID: 7, StartPRB: 0, NumPRB: 10, Mod: dsp.QPSK},
				TBBytes: uint32(len(tb)),
			})
		}
		p.HandleFAPI(ul)
		p.HandleFAPI(fapi.GetDLConfig(0, slot))
	}
	slot := uint64(0)
	feed(0)
	p.Start()
	runTo := func(end uint64) {
		for slot < end {
			feed(slot + 1) // one slot ahead, like the L2
			slot++
			e.RunUntil(SlotStart(slot))
		}
	}

	// The UE's block reaches the PHY a slot after the pipeline drained
	// its slot (and reported it as DTX), while the UL config is still held.
	late := SlotStart(ulSlot+uint64(p.Cfg.PipelineSlots)) + 100*sim.Microsecond
	e.At(late, "test.late-ul", func() {
		codec := NewCodec(0, 0, 9, 99)
		iq := PadSymbols(codec.EncodeBlock(tb, ulSlot, 7, dsp.QPSK))
		pkt, err := fronthaul.NewUplinkIQ(0, 0, fronthaul.SlotFromCounter(ulSlot), 0, 10, iq, 9)
		if err != nil {
			t.Fatal(err)
		}
		pkt.Section = 7
		pkt.Aux = tb
		f := netmodel.GetFrame()
		f.Type = netmodel.EtherTypeECPRI
		f.Payload = pkt.SerializePooled()
		mem.PutBytes(pkt.Payload)
		pkt.Recycle()
		p.HandleFrame(f)
	})
	runTo(ulSlot + uint64(p.Cfg.PipelineSlots) + 1)
	c := p.cells[0]
	if pend, ok := c.ulPending.Get(ulSlot); !ok || len(pend) != 1 || pend[0].aux == nil {
		t.Fatalf("late block not pending with its sidecar: %d entries (live %v)", len(pend), ok)
	}
	runTo(ulSlot + 25) // past the slot-20 GC of ulSlot
	if _, ok := c.ulPending.Get(ulSlot); ok {
		t.Fatal("undrained block still pending after the slot-20 GC")
	}
	// Let the slot's two C-plane packets leave (they are scheduled up to
	// MidSlotOffset plus jitter into the slot) so the sink returns them.
	e.RunUntil(SlotStart(slot) + p.Cfg.MidSlotOffset + p.Cfg.HeartbeatJitter)
	if n := mem.LeakedLeases(); n != 0 {
		t.Fatalf("%d byte lease(s) outstanding after the undrained block was evicted, want 0", n)
	}
}
