package dsp

import (
	"math"
	"math/cmplx"
	"unsafe"

	"slingshot/internal/sim"
)

// Channel models a block-fading wireless channel between a UE and the RU:
// a complex gain h (constant within a slot, evolving slowly across slots by
// a Gauss-Markov process) plus AWGN set by the link's average SNR.
type Channel struct {
	// MeanSNRdB is the long-term average SNR of the link.
	MeanSNRdB float64
	// FadeStd controls slot-to-slot gain variation (dB-scale std of the
	// log-amplitude component); 0 disables fading.
	FadeStd float64
	// Corr is the Gauss-Markov correlation of the fading state across
	// consecutive slots (0..1). Higher = slower fading.
	Corr float64

	rng   *sim.RNG
	state float64 // fading log-amplitude state, dB
	phase float64
}

// NewChannel builds a channel with the given mean SNR and a dedicated RNG
// stream.
func NewChannel(meanSNRdB, fadeStd, corr float64, rng *sim.RNG) *Channel {
	return &Channel{MeanSNRdB: meanSNRdB, FadeStd: fadeStd, Corr: corr, rng: rng}
}

// Advance evolves the fading state by one slot and returns the slot's
// effective SNR in dB.
func (c *Channel) Advance() float64 {
	if c.FadeStd > 0 {
		innov := math.Sqrt(1-c.Corr*c.Corr) * c.FadeStd
		c.state = c.Corr*c.state + c.rng.NormMeanStd(0, innov)
		c.phase += c.rng.Jitter(0.2)
	}
	return c.MeanSNRdB + c.state
}

// SNRdB returns the current slot's effective SNR without advancing.
func (c *Channel) SNRdB() float64 { return c.MeanSNRdB + c.state }

// Gain returns the current complex channel gain (unit mean power scaled by
// the fading state; phase rotates slowly).
func (c *Channel) Gain() complex128 {
	amp := math.Pow(10, c.state/20)
	return cmplx.Rect(amp, c.phase)
}

// NoiseVar returns the complex noise variance for unit-power transmit
// symbols at the channel's current SNR.
func (c *Channel) NoiseVar() float64 {
	return math.Pow(10, -c.SNRdB()/10)
}

// Transmit is TransmitInto a fresh slice; symbols is not modified. It
// remains only because the benchmark module's probes (bench/probes.go) and
// tests call it.
func (c *Channel) Transmit(symbols []complex128) []complex128 {
	return c.TransmitInto(make([]complex128, len(symbols)), symbols)
}

// TransmitInto passes unit-power symbols through the channel — the complex
// gain, then complex AWGN at the current SNR — into dst (grown only if its
// capacity is short) and returns dst[:len(symbols)]. Every element of the
// result is written, so dst may be a pooled lease with stale contents. dst
// may be symbols itself — the in-place form the radio paths use. Any other
// overlap panics before a sample is drawn: a dst ahead of symbols in the
// same array would read samples it had already overwritten.
func (c *Channel) TransmitInto(dst, symbols []complex128) []complex128 {
	n := len(symbols)
	if cap(dst) < n {
		dst = make([]complex128, n)
	}
	dst = dst[:n]
	if n > 0 && &dst[0] != &symbols[0] && overlaps(dst, symbols) {
		panic("dsp: TransmitInto dst partially overlaps symbols")
	}
	h := c.Gain()
	sigma := math.Sqrt(c.NoiseVar() / 2)
	// Noise is drawn noiseChunk samples at a time into 1 KiB of stack, I
	// then Q per sample: the same draws, in the same order, as two Norm
	// calls each.
	const noiseChunk = 64
	var z [2 * noiseChunk]float64
	for i := 0; i < n; i += noiseChunk {
		m := min(noiseChunk, n-i)
		c.rng.NormFill(z[:2*m])
		d, s := dst[i:i+m], symbols[i:i+m]
		for j := range d {
			d[j] = s[j]*h + complex(z[2*j]*sigma, z[2*j+1]*sigma)
		}
	}
	return dst
}

// overlaps reports whether two non-empty slices share any element.
func overlaps(a, b []complex128) bool {
	a0, a1 := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&a[len(a)-1]))
	b0, b1 := uintptr(unsafe.Pointer(&b[0])), uintptr(unsafe.Pointer(&b[len(b)-1]))
	return a0 <= b1 && b0 <= a1
}

// EstimateChannel performs least-squares channel estimation from received
// pilot symbols given the known transmitted pilots. It returns the gain
// estimate and the residual noise-variance estimate.
func EstimateChannel(rxPilots, txPilots []complex128) (h complex128, noiseVar float64) {
	if len(rxPilots) == 0 || len(rxPilots) != len(txPilots) {
		return 1, 1
	}
	var num, den complex128
	for i := range rxPilots {
		num += rxPilots[i] * cmplx.Conj(txPilots[i])
		den += txPilots[i] * cmplx.Conj(txPilots[i])
	}
	if den == 0 {
		return 1, 1
	}
	h = num / den
	var resid float64
	for i := range rxPilots {
		d := rxPilots[i] - h*txPilots[i]
		resid += real(d)*real(d) + imag(d)*imag(d)
	}
	noiseVar = resid / float64(len(rxPilots))
	if noiseVar < 1e-12 {
		noiseVar = 1e-12
	}
	return h, noiseVar
}

// Equalize divides received symbols by the channel estimate (zero-forcing).
// The input is modified in place and returned.
func Equalize(symbols []complex128, h complex128) []complex128 {
	if h == 0 {
		h = 1
	}
	inv := 1 / h
	for i := range symbols {
		symbols[i] *= inv
	}
	return symbols
}

// Pilots returns n known QPSK pilot symbols derived from seed; transmitter
// and receiver derive the same sequence independently.
func Pilots(n int, seed uint64) []complex128 {
	return PilotsInto(nil, n, seed)
}

// PilotsInto is Pilots writing into dst (grown as needed), so per-block
// hot paths can reuse one pilot buffer instead of allocating per call.
func PilotsInto(dst []complex128, n int, seed uint64) []complex128 {
	rng := sim.NewRNG(seed | 1)
	if cap(dst) < n {
		dst = make([]complex128, n)
	}
	dst = dst[:n]
	// Two bits per pilot, 32 pilots per draw: bit 2j of the word is pilot
	// j's I sign, bit 2j+1 its Q sign, moved straight into the float's.
	amp := math.Float64bits(1 / math.Sqrt2)
	var bits uint64
	for i := range dst {
		if i%32 == 0 {
			bits = rng.Uint64()
		}
		dst[i] = complex(math.Float64frombits(amp|bits<<63), math.Float64frombits(amp|bits>>1<<63))
		bits >>= 2
	}
	return dst
}

// SNRFromNoiseVar converts a unit-signal-power noise variance to dB SNR.
func SNRFromNoiseVar(noiseVar float64) float64 {
	if noiseVar <= 0 {
		return 60
	}
	return -10 * math.Log10(noiseVar)
}
