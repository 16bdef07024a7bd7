package dsp

import "math"

// This file retains the pre-closed-form soft demodulator verbatim: the
// textbook max-log metric evaluated by scanning every constellation level
// per bit, O(half·2^half) per axis. It is the differential-test oracle for
// the closed-form piecewise-linear demodulator in modulation.go —
// TestDemodulateMatchesReference asserts the production path is bit-exact
// against it for every constellation — and the plainest statement of the
// metric for readers. It lives in a test file, so no production path can
// reach it.

// DemodulateReference computes per-bit LLRs exactly like Demodulate but via
// the retained full-scan reference implementation.
func DemodulateReference(symbols []complex128, m Modulation, noiseVar float64) []float64 {
	bps := m.BitsPerSymbol()
	half := bps / 2
	levels := pamTables[half].levels
	scale := pamTables[half].scale
	if noiseVar <= 0 {
		noiseVar = 1e-9
	}
	sigma2 := noiseVar / 2

	dst := make([]float64, len(symbols)*bps)
	for s, sym := range symbols {
		axisLLRReference(real(sym), levels, scale, sigma2, half, dst[s*bps:])
		axisLLRReference(imag(sym), levels, scale, sigma2, half, dst[s*bps+half:])
	}
	return dst
}

// axisLLRReference fills out[:half] with the max-log LLRs of one PAM axis:
// (min_{x: bit=1} (y-x)^2 - min_{x: bit=0} (y-x)^2) / (2 sigma2), by
// scanning every level of the constellation per bit.
func axisLLRReference(y float64, levels []float64, scale, sigma2 float64, half int, out []float64) {
	for b := 0; b < half; b++ {
		min0, min1 := math.Inf(1), math.Inf(1)
		for pattern, lv := range levels {
			d := y - lv*scale
			d2 := d * d
			if pattern&(1<<(half-1-b)) == 0 {
				if d2 < min0 {
					min0 = d2
				}
			} else if d2 < min1 {
				min1 = d2
			}
		}
		out[b] = (min1 - min0) / (2 * sigma2)
	}
}
