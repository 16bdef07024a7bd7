package dsp

import (
	"math"
	"testing"

	"slingshot/internal/sim"
)

// transmitReference is the channel written the straightforward way:
// allocate the output, draw two normals per sample, apply gain plus noise.
// TransmitInto is pinned against it bit for bit, RNG position included.
func transmitReference(c *Channel, symbols []complex128) []complex128 {
	h := c.Gain()
	sigma := math.Sqrt(c.NoiseVar() / 2)
	out := make([]complex128, len(symbols))
	for i, s := range symbols {
		n := complex(c.rng.Norm()*sigma, c.rng.Norm()*sigma)
		out[i] = s*h + n
	}
	return out
}

// fadedChannel returns a channel a few slots into its fading process (or a
// static one when fadeStd is 0), identically for every call.
func fadedChannel(fadeStd float64) *Channel {
	c := NewChannel(12, fadeStd, 0.97, sim.NewRNG(77))
	for i := 0; i < 3; i++ {
		c.Advance()
	}
	return c
}

func sameBits(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

func TestTransmitIntoMatchesReference(t *testing.T) {
	stale := complex(math.NaN(), math.Inf(1)) // a recycled lease's leftovers
	for _, fadeStd := range []float64{0, 1.5} {
		for _, n := range []int{0, 1, 13, 64, 65, 168, 200} { // 64 is TransmitInto's noise chunk
			tx := Modulate(randomBits(sim.NewRNG(uint64(n)+5), n*4), QAM16)

			ref := fadedChannel(fadeStd)
			want := transmitReference(ref, tx)

			// Separate destination with stale contents and spare capacity.
			ch := fadedChannel(fadeStd)
			dst := make([]complex128, n+7)
			for i := range dst {
				dst[i] = stale
			}
			got := ch.TransmitInto(dst, tx)
			if !sameBits(got, want) || ch.rng.State() != ref.rng.State() {
				t.Fatalf("fade=%v n=%d: TransmitInto differs from reference", fadeStd, n)
			}
			if n > 0 && &got[0] != &dst[0] {
				t.Fatalf("fade=%v n=%d: sufficient dst was reallocated", fadeStd, n)
			}

			// In place.
			ch = fadedChannel(fadeStd)
			buf := append([]complex128(nil), tx...)
			got = ch.TransmitInto(buf, buf)
			if !sameBits(got, want) || ch.rng.State() != ref.rng.State() {
				t.Fatalf("fade=%v n=%d: in-place TransmitInto differs from reference", fadeStd, n)
			}

			// Short dst grows; the allocating wrapper leaves its input alone.
			ch = fadedChannel(fadeStd)
			if got = ch.TransmitInto(nil, tx); !sameBits(got, want) {
				t.Fatalf("fade=%v n=%d: TransmitInto(nil) differs from reference", fadeStd, n)
			}
			ch = fadedChannel(fadeStd)
			before := append([]complex128(nil), tx...)
			if got = ch.Transmit(tx); !sameBits(got, want) || !sameBits(tx, before) {
				t.Fatalf("fade=%v n=%d: Transmit differs from reference or modified its input", fadeStd, n)
			}
		}
	}
}

// TestTransmitIntoAliasing pins the overlap contract: dst == symbols is the
// supported in-place form (covered above); a dst that overlaps symbols at
// any other offset, ahead or behind, must panic before drawing any noise.
func TestTransmitIntoAliasing(t *testing.T) {
	for _, tc := range []struct {
		name           string
		dstOff, symOff int
	}{
		{"dst-ahead", 4, 0},
		{"dst-behind", 0, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ch := fadedChannel(0)
			start := ch.rng.State()
			buf := make([]complex128, 36)
			defer func() {
				if recover() == nil {
					t.Fatal("partially overlapping dst did not panic")
				}
				if ch.rng.State() != start {
					t.Fatal("channel RNG advanced before the panic")
				}
			}()
			ch.TransmitInto(buf[tc.dstOff:tc.dstOff+24], buf[tc.symOff:tc.symOff+24])
		})
	}

	// Adjacent halves of one array do not overlap.
	ch := fadedChannel(0)
	buf := make([]complex128, 48)
	ch.TransmitInto(buf[24:], buf[:24])
}

func TestTransmitIntoZeroAllocs(t *testing.T) {
	ch := fadedChannel(1.5)
	buf := Modulate(randomBits(sim.NewRNG(9), 168*4), QAM16)
	if avg := testing.AllocsPerRun(50, func() { ch.TransmitInto(buf, buf) }); avg != 0 {
		t.Fatalf("TransmitInto allocates %.1f times per call, want 0", avg)
	}
}

// TestPilotsWordWise pins the pilot kernel's use of its stream — one draw
// per 32 pilots, bit 2j pilot j's I sign and bit 2j+1 its Q sign — against
// the draw-by-draw spelling, at lengths on both sides of the word boundary.
// Transmitter and receiver each derive the block's pilots for themselves,
// so a length-dependent sequence would break every channel estimate.
func TestPilotsWordWise(t *testing.T) {
	const seed = 0xC0FFEE
	amp := 1 / math.Sqrt2
	stale := complex(math.NaN(), math.Inf(1))
	for _, n := range []int{0, 1, 31, 32, 33, 100} {
		rng := sim.NewRNG(seed | 1)
		want := make([]complex128, n)
		var word uint64
		for i := range want {
			if i%32 == 0 {
				word = rng.Uint64()
			}
			re, im := amp, amp
			if word>>(2*(i%32))&1 != 0 {
				re = -amp
			}
			if word>>(2*(i%32)+1)&1 != 0 {
				im = -amp
			}
			want[i] = complex(re, im)
		}

		dst := make([]complex128, n+3)
		for i := range dst {
			dst[i] = stale
		}
		tx, rx := PilotsInto(dst, n, seed), Pilots(n, seed)
		if !sameBits(tx, want) || !sameBits(rx, want) {
			t.Fatalf("n=%d: pilots differ from the draw-by-draw sequence", n)
		}
		if n > 0 && &tx[0] != &dst[0] {
			t.Fatalf("n=%d: sufficient dst was reallocated", n)
		}
	}
}
