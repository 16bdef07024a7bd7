package fec

import (
	"bytes"
	"testing"
	"testing/quick"

	"slingshot/internal/sim"
)

func TestCRC24KnownVector(t *testing.T) {
	// CRC of empty data is 0 by construction of the shift register.
	if CRC24(nil) != 0 {
		t.Fatal("CRC24(nil) != 0")
	}
	// Changing one bit must change the CRC.
	a := CRC24([]byte{0x01})
	b := CRC24([]byte{0x00})
	if a == b {
		t.Fatal("CRC24 did not discriminate single-bit difference")
	}
}

func TestCRC24RoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		framed := AppendCRC24(append([]byte(nil), data...))
		payload, ok := CheckCRC24(framed)
		return ok && bytes.Equal(payload, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCRC24DetectsCorruption(t *testing.T) {
	f := func(data []byte, pos uint16, bit uint8) bool {
		if len(data) == 0 {
			return true
		}
		framed := AppendCRC24(append([]byte(nil), data...))
		framed[int(pos)%len(framed)] ^= 1 << (bit % 8)
		_, ok := CheckCRC24(framed)
		return !ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCRC16RoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		framed := AppendCRC16(append([]byte(nil), data...))
		payload, ok := CheckCRC16(framed)
		return ok && bytes.Equal(payload, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCheckCRCShortInput(t *testing.T) {
	if _, ok := CheckCRC24([]byte{1, 2}); ok {
		t.Fatal("short CRC24 input accepted")
	}
	if _, ok := CheckCRC16([]byte{1}); ok {
		t.Fatal("short CRC16 input accepted")
	}
}

func randomBits(rng *sim.RNG, n int) []byte {
	bits := make([]byte, n)
	for i := range bits {
		bits[i] = byte(rng.Uint64() & 1)
	}
	return bits
}

// bitsToLLR maps coded bits to perfect-channel LLRs with optional AWGN at
// the given noise std (BPSK model: bit 0 -> +1, bit 1 -> -1).
func bitsToLLR(bits []byte, noiseStd float64, rng *sim.RNG) []float64 {
	llr := make([]float64, len(bits))
	for i, b := range bits {
		x := 1.0
		if b == 1 {
			x = -1.0
		}
		y := x
		if noiseStd > 0 {
			y += rng.Norm() * noiseStd
		}
		// LLR = 2y/sigma^2; scale constant is irrelevant to min-sum.
		llr[i] = 2 * y
		if noiseStd > 0 {
			llr[i] = 2 * y / (noiseStd * noiseStd)
		}
	}
	return llr
}

// decode decodes one block into fresh scratch, so the result's Info stays
// valid for as long as the test holds it.
func decode(c *Code, llr []float64, maxIters int) DecodeResult {
	return c.DecodeWithScratch(llr, maxIters, c.NewScratch())
}

// decodeBatch is DecodeBatchInto into a fresh results slice.
func decodeBatch(jobs []DecodeJob) []DecodeResult {
	out := make([]DecodeResult, len(jobs))
	DecodeBatchInto(out, jobs)
	return out
}

func TestEncodeSystematic(t *testing.T) {
	c := NewCode(64, 128, 1)
	rng := sim.NewRNG(5)
	info := randomBits(rng, 64)
	coded := c.Encode(info)
	if len(coded) != 128 {
		t.Fatalf("coded length %d", len(coded))
	}
	if !bytes.Equal(coded[:64], info) {
		t.Fatal("code is not systematic")
	}
	if !c.checkParity(coded) {
		t.Fatal("encoder output fails its own parity checks")
	}
}

func TestEncodeParityProperty(t *testing.T) {
	c := NewCode(32, 64, 7)
	rng := sim.NewRNG(11)
	f := func(seed uint32) bool {
		_ = seed
		info := randomBits(rng, 32)
		return c.checkParity(c.Encode(info))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeNoiseless(t *testing.T) {
	c := NewCode(128, 256, 3)
	rng := sim.NewRNG(9)
	for trial := 0; trial < 20; trial++ {
		info := randomBits(rng, 128)
		llr := bitsToLLR(c.Encode(info), 0, rng)
		res := decode(c, llr, 8)
		if !res.OK {
			t.Fatalf("noiseless decode failed at trial %d", trial)
		}
		if !bytes.Equal(res.Info, info) {
			t.Fatalf("noiseless decode wrong bits at trial %d", trial)
		}
		if res.Iterations != 1 {
			t.Fatalf("noiseless decode took %d iterations", res.Iterations)
		}
	}
}

func TestDecodeCorrectsModerateNoise(t *testing.T) {
	c := NewCode(128, 256, 3)
	rng := sim.NewRNG(21)
	ok := 0
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		info := randomBits(rng, 128)
		llr := bitsToLLR(c.Encode(info), 0.7, rng)
		res := decode(c, llr, 12)
		if res.OK && bytes.Equal(res.Info, info) {
			ok++
		}
	}
	if ok < trials*8/10 {
		t.Fatalf("decoded only %d/%d at sigma=0.7", ok, trials)
	}
}

func TestDecodeFailsAtHighNoise(t *testing.T) {
	c := NewCode(128, 256, 3)
	rng := sim.NewRNG(23)
	ok := 0
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		info := randomBits(rng, 128)
		llr := bitsToLLR(c.Encode(info), 2.5, rng)
		res := decode(c, llr, 8)
		if res.OK && bytes.Equal(res.Info, info) {
			ok++
		}
	}
	if ok > trials/2 {
		t.Fatalf("decoder implausibly good at sigma=2.5: %d/%d", ok, trials)
	}
}

// TestMoreIterationsHelp is the property behind the Fig 11 upgrade
// experiment: at a marginal SNR, a decoder budgeted more iterations
// succeeds at least as often.
func TestMoreIterationsHelp(t *testing.T) {
	c := NewCode(128, 256, 3)
	const trials = 120
	okLow, okHigh := 0, 0
	for _, iters := range []int{2, 16} {
		rng := sim.NewRNG(31) // identical noise for both budgets
		ok := 0
		for trial := 0; trial < trials; trial++ {
			info := randomBits(rng, 128)
			llr := bitsToLLR(c.Encode(info), 0.85, rng)
			res := decode(c, llr, iters)
			if res.OK && bytes.Equal(res.Info, info) {
				ok++
			}
		}
		if iters == 2 {
			okLow = ok
		} else {
			okHigh = ok
		}
	}
	if okHigh <= okLow {
		t.Fatalf("16 iterations (%d/%d) not better than 2 (%d/%d)",
			okHigh, trials, okLow, trials)
	}
}

// TestSoftCombiningHelps validates the HARQ premise: summing LLRs from two
// independent noisy receptions of the same codeword decodes more reliably
// than either alone.
func TestSoftCombiningHelps(t *testing.T) {
	c := NewCode(128, 256, 3)
	rng := sim.NewRNG(41)
	const trials = 80
	singleOK, combinedOK := 0, 0
	for trial := 0; trial < trials; trial++ {
		info := randomBits(rng, 128)
		coded := c.Encode(info)
		llr1 := bitsToLLR(coded, 1.1, rng)
		llr2 := bitsToLLR(coded, 1.1, rng)
		if res := decode(c, llr1, 8); res.OK && bytes.Equal(res.Info, info) {
			singleOK++
		}
		sum := make([]float64, len(llr1))
		for i := range sum {
			sum[i] = llr1[i] + llr2[i]
		}
		if res := decode(c, sum, 8); res.OK && bytes.Equal(res.Info, info) {
			combinedOK++
		}
	}
	if combinedOK <= singleOK {
		t.Fatalf("combined %d/%d not better than single %d/%d",
			combinedOK, trials, singleOK, trials)
	}
}

func TestGetCaches(t *testing.T) {
	a := Get(64, 128, 99)
	b := Get(64, 128, 99)
	if a != b {
		t.Fatal("Get did not cache")
	}
	if cdiff := Get(64, 128, 100); cdiff == a {
		t.Fatal("different seeds share a code")
	}
}

func TestCodeRate(t *testing.T) {
	if r := NewCode(100, 200, 1).Rate(); r != 0.5 {
		t.Fatalf("Rate = %f", r)
	}
}

func TestNewCodePanicsOnBadDims(t *testing.T) {
	for _, dims := range [][2]int{{0, 10}, {10, 10}, {10, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCode(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			NewCode(dims[0], dims[1], 1)
		}()
	}
}

func TestEveryInfoBitProtected(t *testing.T) {
	// Flipping any single info bit must violate at least one parity check:
	// guaranteed because the shuffled-deck construction references every
	// info column at least once when M*InfoWeight >= K.
	c := NewCode(64, 128, 13)
	rng := sim.NewRNG(50)
	info := randomBits(rng, 64)
	coded := c.Encode(info)
	for i := 0; i < 64; i++ {
		coded[i] ^= 1
		if c.checkParity(coded) {
			t.Fatalf("flipping info bit %d left parity satisfied", i)
		}
		coded[i] ^= 1
	}
}

func BenchmarkEncode(b *testing.B) {
	c := Get(512, 1024, 1)
	rng := sim.NewRNG(1)
	info := randomBits(rng, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Encode(info)
	}
}

func BenchmarkDecode8Iters(b *testing.B) {
	c := Get(512, 1024, 1)
	rng := sim.NewRNG(1)
	info := randomBits(rng, 512)
	llr := bitsToLLR(c.Encode(info), 0.8, rng)
	s := c.NewScratch()
	c.DecodeWithScratch(llr, 8, s) // size scratch buffers before timing
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.DecodeWithScratch(llr, 8, s)
	}
}
