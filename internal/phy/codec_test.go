package phy

import (
	"math"
	"testing"
	"testing/quick"

	"slingshot/internal/dsp"
	"slingshot/internal/fec"
	"slingshot/internal/fronthaul"
	"slingshot/internal/harq"
	"slingshot/internal/par"
	"slingshot/internal/sim"
)

func TestKindOfPattern(t *testing.T) {
	want := []SlotKind{SlotDL, SlotDL, SlotDL, SlotSpecial, SlotUL}
	for slot := uint64(0); slot < 20; slot++ {
		if got := KindOf(slot); got != want[slot%5] {
			t.Fatalf("KindOf(%d) = %v, want %v", slot, got, want[slot%5])
		}
	}
}

func TestNextSlotHelpers(t *testing.T) {
	if got := NextULSlot(0); got != 4 {
		t.Fatalf("NextULSlot(0) = %d", got)
	}
	if got := NextULSlot(4); got != 4 {
		t.Fatalf("NextULSlot(4) = %d", got)
	}
	if got := NextDLSlot(3); got != 5 {
		t.Fatalf("NextDLSlot(3) = %d", got)
	}
	if got := NextDLSlot(2); got != 2 {
		t.Fatalf("NextDLSlot(2) = %d", got)
	}
}

func TestSlotTimeConversions(t *testing.T) {
	if SlotStart(4) != 4*TTI {
		t.Fatal("SlotStart wrong")
	}
	if SlotAt(4*TTI) != 4 || SlotAt(4*TTI+TTI-1) != 4 || SlotAt(5*TTI) != 5 {
		t.Fatal("SlotAt wrong")
	}
	if SlotAt(-5) != 0 {
		t.Fatal("SlotAt negative wrong")
	}
	if SlotDL.String() != "D" || SlotSpecial.String() != "S" || SlotUL.String() != "U" {
		t.Fatal("SlotKind strings")
	}
}

func cleanChannel() *dsp.Channel {
	return dsp.NewChannel(40, 0, 0, sim.NewRNG(1))
}

func TestCodecRoundTripCleanChannel(t *testing.T) {
	c := NewCodec(0, 0, 0, 42)
	tb := []byte("the quick brown fox jumps over the lazy dog 0123456789")
	for _, m := range []dsp.Modulation{dsp.QPSK, dsp.QAM16, dsp.QAM64, dsp.QAM256} {
		iq := c.EncodeBlock(tb, 100, 7, m)
		if len(iq) != c.SymbolsPerBlock(m) {
			t.Fatalf("%v: %d symbols, want %d", m, len(iq), c.SymbolsPerBlock(m))
		}
		rx := cleanChannel().Transmit(iq)
		out := c.DecodeBlock(rx, 100, 7, m, nil, 0, true, 8)
		if !out.OK {
			t.Fatalf("%v: clean-channel decode failed (SNR est %.1f)", m, out.SNRdB)
		}
		if out.SNRdB < 25 {
			t.Fatalf("%v: SNR estimate %.1f too low for 40 dB channel", m, out.SNRdB)
		}
	}
}

func TestCodecWrongScramblingFails(t *testing.T) {
	c := NewCodec(0, 0, 0, 42)
	tb := []byte("payload")
	iq := c.EncodeBlock(tb, 100, 7, dsp.QPSK)
	rx := cleanChannel().Transmit(iq)
	// Wrong slot, wrong UE, or wrong cell seed must all fail CRC.
	if out := c.DecodeBlock(rx, 101, 7, dsp.QPSK, nil, 0, true, 8); out.OK {
		t.Fatal("decode with wrong slot succeeded")
	}
	if out := c.DecodeBlock(rx, 100, 8, dsp.QPSK, nil, 0, true, 8); out.OK {
		t.Fatal("decode with wrong UE succeeded")
	}
	other := NewCodec(0, 0, 0, 43)
	if out := other.DecodeBlock(rx, 100, 7, dsp.QPSK, nil, 0, true, 8); out.OK {
		t.Fatal("decode with wrong cell seed succeeded")
	}
}

func TestCodecGarbageIQFails(t *testing.T) {
	c := NewCodec(0, 0, 0, 42)
	rng := sim.NewRNG(5)
	garbage := make([]complex128, c.SymbolsPerBlock(dsp.QPSK))
	for i := range garbage {
		garbage[i] = complex(rng.Norm(), rng.Norm())
	}
	if out := c.DecodeBlock(garbage, 100, 7, dsp.QPSK, nil, 0, true, 8); out.OK {
		t.Fatal("garbage IQ decoded OK")
	}
}

func TestCodecShortInputFails(t *testing.T) {
	c := NewCodec(0, 0, 0, 42)
	if out := c.DecodeBlock(nil, 0, 0, dsp.QPSK, nil, 0, true, 8); out.OK {
		t.Fatal("nil input decoded")
	}
	if out := c.DecodeBlock(make([]complex128, 5), 0, 0, dsp.QPSK, nil, 0, true, 8); out.OK {
		t.Fatal("short input decoded")
	}
}

// TestCodecHARQRetransmissionRecovers is the core §4.2 behaviour: a block
// that fails at low SNR decodes after chase-combining a retransmission.
func TestCodecHARQRetransmissionRecovers(t *testing.T) {
	c := NewCodec(0, 0, 0, 42)
	tb := []byte("harq payload")
	rng := sim.NewRNG(7)
	recovered, firstTryOK := 0, 0
	const trials = 40
	for i := 0; i < trials; i++ {
		pool := harq.NewPool()
		ch := dsp.NewChannel(1.5, 0, 0, rng.Fork(uint64(i))) // marginal SNR for QPSK r=1/2
		slot := uint64(200 + i*10)
		iq := c.EncodeBlock(tb, slot, 3, dsp.QPSK)
		out1 := c.DecodeBlock(ch.Transmit(iq), slot, 3, dsp.QPSK, pool, 0, true, 8)
		if out1.OK {
			firstTryOK++
			continue
		}
		// Retransmission (same block bits, same slot-scrambling by
		// grant redundancy — we keep the same slot key so combining is
		// coherent).
		out2 := c.DecodeBlock(ch.Transmit(iq), slot, 3, dsp.QPSK, pool, 0, false, 8)
		if out2.OK {
			recovered++
			if out2.TxCount != 2 {
				t.Fatalf("TxCount = %d after combine", out2.TxCount)
			}
		}
	}
	if firstTryOK == trials {
		t.Skip("channel too good to exercise HARQ at this seed")
	}
	if recovered == 0 {
		t.Fatal("no failed block ever recovered via HARQ combining")
	}
}

func TestCodecDecodeAcksPool(t *testing.T) {
	c := NewCodec(0, 0, 0, 42)
	pool := harq.NewPool()
	iq := c.EncodeBlock([]byte("x"), 50, 1, dsp.QPSK)
	out := c.DecodeBlock(cleanChannel().Transmit(iq), 50, 1, dsp.QPSK, pool, 2, true, 8)
	if !out.OK {
		t.Fatal("clean decode failed")
	}
	if pool.ActiveSequences() != 0 {
		t.Fatal("successful decode left HARQ sequence active")
	}
}

func TestCodecWorkUnitsAccounted(t *testing.T) {
	c := NewCodec(0, 0, 0, 42)
	iq := c.EncodeBlock([]byte("x"), 50, 1, dsp.QPSK)
	out := c.DecodeBlock(cleanChannel().Transmit(iq), 50, 1, dsp.QPSK, nil, 0, true, 8)
	if out.WorkUnits <= 0 {
		t.Fatal("no work units recorded")
	}
	if out.WorkUnits > c.Code.Edges()*8 {
		t.Fatalf("work units %d exceed budget", out.WorkUnits)
	}
}

func TestPadSymbols(t *testing.T) {
	if got := len(PadSymbols(make([]complex128, 13))); got != 24 {
		t.Fatalf("PadSymbols(13) -> %d", got)
	}
	if got := len(PadSymbols(make([]complex128, 24))); got != 24 {
		t.Fatalf("PadSymbols(24) -> %d", got)
	}

	// Into a recycled lease: the pad must be explicit zeros over whatever
	// the spare capacity held, and must not allocate.
	c := NewCodec(0, 0, 9, 1)
	n := c.SymbolsPerBlock(dsp.QAM64)
	if n%12 == 0 || c.PaddedSymbolsPerBlock(dsp.QAM64) != n+12-n%12 {
		t.Fatalf("64QAM block: %d symbols, padded %d", n, c.PaddedSymbolsPerBlock(dsp.QAM64))
	}
	lease := make([]complex128, c.PaddedSymbolsPerBlock(dsp.QAM64))
	for i := range lease {
		lease[i] = complex(7, -7)
	}
	var padded []complex128
	if avg := testing.AllocsPerRun(10, func() { padded = PadSymbols(lease[:n]) }); avg != 0 {
		t.Fatalf("PadSymbols allocates %.1f times with capacity to spare", avg)
	}
	if len(padded) != len(lease) || &padded[0] != &lease[0] {
		t.Fatalf("PadSymbols left the lease: len %d, want %d", len(padded), len(lease))
	}
	for i := n; i < len(padded); i++ {
		if padded[i] != 0 {
			t.Fatalf("pad sample %d = %v, want 0", i, padded[i])
		}
	}
}

func TestCodecSurvivesBFP(t *testing.T) {
	// Full path: encode -> channel -> BFP compress/decompress -> decode.
	c := NewCodec(0, 0, 9, 42)
	tb := []byte("bfp path")
	iq := PadSymbols(c.EncodeBlock(tb, 60, 2, dsp.QAM16))
	rx := dsp.NewChannel(25, 0, 0, sim.NewRNG(3)).Transmit(iq)
	enc, err := fronthaul.CompressBFP(rx, 9)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := fronthaul.DecompressBFP(enc, 9)
	if err != nil {
		t.Fatal(err)
	}
	out := c.DecodeBlock(dec, 60, 2, dsp.QAM16, nil, 0, true, 8)
	if !out.OK {
		t.Fatalf("decode after BFP failed (SNR est %.1f)", out.SNRdB)
	}
}

// TestCodecRoundTripProperty: any transport block content, any supported
// modulation, any slot/UE pair round-trips over a clean channel, and the
// sampled block never aliases across TB contents (different prefixes give
// different blocks).
func TestCodecRoundTripProperty(t *testing.T) {
	c := NewCodec(0, 0, 0, 42)
	mods := []dsp.Modulation{dsp.QPSK, dsp.QAM16, dsp.QAM64, dsp.QAM256}
	f := func(tb []byte, slot uint16, ue uint16, modIdx uint8) bool {
		m := mods[int(modIdx)%len(mods)]
		s := uint64(slot)
		iq := c.EncodeBlock(tb, s, ue, m)
		rx := dsp.NewChannel(40, 0, 0, sim.NewRNG(uint64(slot)^uint64(ue))).Transmit(iq)
		out := c.DecodeBlock(rx, s, ue, m, nil, 0, true, 8)
		return out.OK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestCodecPrefixSensitivity: two TBs differing anywhere in the sampled
// prefix produce different block bits (the CRC-16 guards the prefix).
func TestCodecPrefixSensitivity(t *testing.T) {
	c := NewCodec(0, 0, 0, 42)
	a := c.EncodeBlock([]byte("prefix-A rest"), 5, 1, dsp.QPSK)
	b := c.EncodeBlock([]byte("prefix-B rest"), 5, 1, dsp.QPSK)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different TBs produced identical blocks")
	}
}

// TestLLRLaneWorkerDeterminism checks that the soft-value path the PHY
// drain stages for a slot (PrepareBlock → FECJob → fec.DecodeBatchInto →
// FinishFECJob) produces bit-identical outcomes at different worker counts.
func TestLLRLaneWorkerDeterminism(t *testing.T) {
	run := func() []DecodeOutcome {
		c := NewCodec(0, 0, 0, 42)
		// Waterfall SNR: mixed OK/failed blocks and varied iteration
		// counts, so WorkUnits actually discriminates.
		ch := dsp.NewChannel(12.5, 0, 0, sim.NewRNG(3))
		rng := sim.NewRNG(9)
		tb := make([]byte, 24)
		const blocks = 16
		pbs := make([]PreparedBlock, blocks)
		jobs := make([]fec.DecodeJob, blocks)
		for i := 0; i < blocks; i++ {
			for j := range tb {
				tb[j] = byte(rng.Uint64())
			}
			slot := uint64(4 + 5*i)
			iq := c.EncodeBlock(tb, slot, uint16(i), dsp.QAM64)
			rx := ch.Transmit(iq)
			pbs[i] = c.PrepareBlock(rx, slot, uint16(i), dsp.QAM64, nil, 0, true)
			if !pbs[i].Valid {
				t.Fatalf("block %d failed prepare", i)
			}
			jobs[i] = c.FECJob(&pbs[i], 8)
		}
		results := make([]fec.DecodeResult, blocks)
		fec.DecodeBatchInto(results, jobs)
		outs := make([]DecodeOutcome, blocks)
		for i := range outs {
			outs[i] = c.FinishFECJob(&pbs[i], &results[i])
			pbs[i].Release()
		}
		return outs
	}

	prev := par.SetWorkers(1)
	defer par.SetWorkers(prev)
	seq := run()
	par.SetWorkers(4)
	conc := run()
	for i := range seq {
		if seq[i].OK != conc[i].OK || seq[i].WorkUnits != conc[i].WorkUnits ||
			math.Float64bits(seq[i].SNRdB) != math.Float64bits(conc[i].SNRdB) ||
			seq[i].TxCount != conc[i].TxCount {
			t.Fatalf("block %d: outcome differs across worker counts:\n1 worker: %+v\n4 workers: %+v",
				i, seq[i], conc[i])
		}
	}
}
