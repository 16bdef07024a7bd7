package phy

import (
	"math"
	"testing"

	"slingshot/internal/dsp"
	"slingshot/internal/harq"
	"slingshot/internal/sim"
)

// blerBlocks is the number of blocks sent at every point of blerTable.
const blerBlocks = 2000

// blerTable is the loopback block-error curve of random stream v1 (the
// seed's Box-Muller Norm, bit-serial scrambler and per-draw pilots),
// recorded on commit 2300bd1 with this same harness: v1Fails blocks of
// blerBlocks failed CRC at snrDB, after the first transmission (retx
// false) or after chase-combining one HARQ retransmission of the blocks
// that failed it (retx true). [lo, hi] is the 99.9 % Wilson score interval
// of v1Fails/blerBlocks, in blocks. A later stream draws different noise
// from the same distribution, so its count differs but must stay inside
// the band; a generator with a wrong variance or tail, a scrambler whose
// two ends drift, or a demodulator regression moves whole columns out.
var blerTable = []struct {
	mod     dsp.Modulation
	retx    bool
	snrDB   float64
	v1Fails int
	lo, hi  int
}{
	{dsp.QAM16, false, 6.75, 1814, 1767, 1852},
	{dsp.QAM16, false, 7.25, 1472, 1405, 1534},
	{dsp.QAM16, false, 7.75, 923, 851, 996},
	{dsp.QAM16, false, 8.25, 432, 375, 495},
	{dsp.QAM16, false, 8.75, 130, 99, 171},
	{dsp.QAM16, true, 4.00, 1898, 1861, 1925},
	{dsp.QAM16, true, 4.50, 1587, 1525, 1643},
	{dsp.QAM16, true, 5.00, 1053, 980, 1125},
	{dsp.QAM16, true, 5.50, 456, 398, 520},
	{dsp.QAM16, true, 6.00, 154, 120, 197},
	{dsp.QAM64, false, 11.00, 1881, 1842, 1911},
	{dsp.QAM64, false, 11.75, 1497, 1431, 1558},
	{dsp.QAM64, false, 12.25, 1009, 936, 1082},
	{dsp.QAM64, false, 13.00, 360, 307, 419},
	{dsp.QAM64, false, 13.50, 126, 95, 166},
	{dsp.QAM64, true, 8.50, 1915, 1881, 1940},
	{dsp.QAM64, true, 9.25, 1539, 1475, 1597},
	{dsp.QAM64, true, 9.75, 1042, 969, 1115},
	{dsp.QAM64, true, 10.50, 345, 293, 404},
	{dsp.QAM64, true, 11.00, 126, 95, 166},
}

// wilson999 returns the 99.9 % Wilson score interval of k failures in n
// trials as the smallest and largest failure counts inside it.
func wilson999(k, n int) (lo, hi int) {
	const z = 3.2905267314919255 // two-sided 99.9 %
	p, fn := float64(k)/float64(n), float64(n)
	centre := (p + z*z/(2*fn)) / (1 + z*z/fn)
	half := z / (1 + z*z/fn) * math.Sqrt(p*(1-p)/fn+z*z/(4*fn*fn))
	return int(math.Ceil((centre - half) * fn)), int(math.Floor((centre + half) * fn))
}

// blerPoint sends blerBlocks random blocks through the production loopback
// AppendEncodeBlock → TransmitInto → DecodeBlock over a static AWGN channel
// and counts the blocks still undecoded at the end. Every stream it uses is
// forked from the point's index, so a point's count depends on nothing but
// the code under test.
func blerPoint(idx int, m dsp.Modulation, snrDB float64, retx bool) int {
	c := NewCodec(0, 0, 0, 42)
	root := sim.NewRNG(0xB1E4).Fork(uint64(idx))
	ch := dsp.NewChannel(snrDB, 0, 0, root.Fork(1))
	data := root.Fork(2)
	pool := harq.NewPool()
	tb := make([]byte, 24)
	var iq, rx []complex128
	fails := 0
	for i := 0; i < blerBlocks; i++ {
		for j := range tb {
			tb[j] = byte(data.Uint64())
		}
		slot := uint64(4 + 5*i)
		iq = c.AppendEncodeBlock(iq[:0], tb, slot, 7, m)
		rx = ch.TransmitInto(rx, iq)
		out := c.DecodeBlock(rx, slot, 7, m, pool, 0, true, DefaultFECIter)
		if retx && !out.OK {
			rx = ch.TransmitInto(rx, iq)
			out = c.DecodeBlock(rx, slot, 7, m, pool, 0, false, DefaultFECIter)
		}
		if !out.OK {
			fails++
		}
	}
	return fails
}

// TestBLERvsSNRInsideV1Bands is the equivalence gate for a change of random
// stream: deterministic per seed, so it passes or fails once, not flakily.
func TestBLERvsSNRInsideV1Bands(t *testing.T) {
	if testing.Short() {
		t.Skip("40 000-block BLER sweep is slow")
	}
	for i, p := range blerTable {
		if lo, hi := wilson999(p.v1Fails, blerBlocks); lo != p.lo || hi != p.hi {
			t.Errorf("row %d: committed band [%d, %d] is not the Wilson interval [%d, %d] of %d/%d",
				i, p.lo, p.hi, lo, hi, p.v1Fails, blerBlocks)
		}
		got := blerPoint(i, p.mod, p.snrDB, p.retx)
		t.Logf("%v retx=%-5v %5.2f dB: %4d/%d failed, v1 %4d, band [%d, %d]",
			p.mod, p.retx, p.snrDB, got, blerBlocks, p.v1Fails, p.lo, p.hi)
		if got < p.lo || got > p.hi {
			t.Errorf("%v retx=%v %.2f dB: %d/%d blocks failed, outside v1's 99.9%% band [%d, %d] around %d",
				p.mod, p.retx, p.snrDB, got, blerBlocks, p.lo, p.hi, p.v1Fails)
		}
	}
}
