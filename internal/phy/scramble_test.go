package phy

import (
	"math"
	"testing"

	"slingshot/internal/dsp"
	"slingshot/internal/sim"
)

// TestScrambleMaskSameAtBothEnds sends blocks over a noiseless unit channel
// and compares, bit by bit, what the transmitter scrambled with what the
// receiver descrambled, for code lengths that do and do not fill the last
// 64-bit word of the mask and for modulations that do and do not pad.
func TestScrambleMaskSameAtBothEnds(t *testing.T) {
	tb := []byte("scrambler property payload, long enough for every K below")
	for _, n := range []int{64, 100, 128, 200, 512, 520} {
		c := NewCodec(n/2, n, 9, 42)
		for _, m := range []dsp.Modulation{dsp.QPSK, dsp.QAM16, dsp.QAM64, dsp.QAM256} {
			const slot, ue = 1234, 7
			iq := c.EncodeBlock(tb, slot, ue, m)
			sent := dsp.HardDemodulate(iq[c.PilotLen:], m)

			pb := c.PrepareBlock(iq, slot, ue, m, nil, 0, true)
			if !pb.Valid || len(pb.LLR) != n {
				t.Fatalf("N=%d %v: prepare gave %d LLRs, valid=%v", n, m, len(pb.LLR), pb.Valid)
			}
			// What the receiver descrambled to must be the codeword itself:
			// systematic, so re-encoding its first K bits reproduces all N.
			got := make([]byte, n)
			for i, v := range pb.LLR {
				if v < 0 {
					got[i] = 1
				}
			}
			pb.Release()
			word := c.Code.Encode(got[:c.Code.K])

			mask := c.scrambleMask(nil, slot, ue)
			if want := (n + 63) / 64; len(mask) != want {
				t.Fatalf("N=%d: mask has %d words, want %d", n, len(mask), want)
			}
			ones := 0
			for i := 0; i < n; i++ {
				if got[i] != word[i] {
					t.Fatalf("N=%d %v: bit %d descrambled to %d, codeword has %d", n, m, i, got[i], word[i])
				}
				if sent[i]^word[i] != byte(maskBit(mask, i)) {
					t.Fatalf("N=%d %v: bit %d was sent scrambled by %d, mask says %d",
						n, m, i, sent[i]^word[i], maskBit(mask, i))
				}
				ones += int(maskBit(mask, i))
			}
			if ones < n/4 || ones > 3*n/4 {
				t.Fatalf("N=%d: %d of %d mask bits set", n, ones, n)
			}
			for i := n; i < len(sent); i++ { // pad to the modulation order
				if sent[i] != 0 {
					t.Fatalf("N=%d %v: pad bit %d was scrambled", n, m, i)
				}
			}
		}
	}
}

// TestScrambleSignFlipIsNegation: descrambling by sign-bit flip must be
// `llr = -llr` for every float64, the ones a broken front end produces
// included, and must leave unmasked positions alone.
func TestScrambleSignFlipIsNegation(t *testing.T) {
	negZero := math.Copysign(0, -1)
	vals := []float64{0, negZero, 1.5, -2.25, math.Inf(1), math.Inf(-1), math.NaN(),
		-math.NaN(), math.SmallestNonzeroFloat64, -math.MaxFloat64}
	// 70 LLRs so the values straddle the first word boundary; every other
	// mask bit set, in both words.
	mask := []uint64{0xAAAAAAAAAAAAAAAA, 0xAAAAAAAAAAAAAAAA}
	llr := make([]float64, 70)
	for i := range llr {
		llr[i] = vals[i%len(vals)]
	}
	want := make([]float64, len(llr))
	for i, v := range llr {
		if i%2 == 1 {
			v = -v
		}
		want[i] = v
	}
	descrambleLLRs(llr, mask)
	for i := range llr {
		if math.Float64bits(llr[i]) != math.Float64bits(want[i]) {
			t.Fatalf("LLR %d: got %v (%#x), want %v (%#x)", i,
				llr[i], math.Float64bits(llr[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestCodecPilotLengths: each end derives the block's pilots for itself,
// 32 to a draw, so a block must survive any pilot count around that
// boundary. The channel is rotated and scaled, so only matching pilots
// equalize it; with no pilots there is no estimate and the gain stays 1.
func TestCodecPilotLengths(t *testing.T) {
	tb := []byte("pilot length payload")
	for _, pilots := range []int{0, 1, 31, 32, 33} {
		c := NewCodec(0, 0, 9, 42)
		c.PilotLen = pilots
		iq := c.EncodeBlock(tb, 77, 3, dsp.QAM16)
		if len(iq) != c.SymbolsPerBlock(dsp.QAM16) {
			t.Fatalf("PilotLen %d: %d symbols, want %d", pilots, len(iq), c.SymbolsPerBlock(dsp.QAM16))
		}
		ch := dsp.NewChannel(30, 1.5, 0.9, sim.NewRNG(4))
		for i := 0; i < 5 && pilots > 0; i++ {
			ch.Advance()
		}
		out := c.DecodeBlock(ch.Transmit(iq), 77, 3, dsp.QAM16, nil, 0, true, DefaultFECIter)
		if !out.OK {
			t.Fatalf("PilotLen %d: decode failed through gain %v (SNR est %.1f dB)", pilots, ch.Gain(), out.SNRdB)
		}
	}
}
