package fronthaul

import (
	"fmt"
	"math"
)

// This file retains the pre-SoA BFP codec verbatim: exponent search by
// iterated doubling, value-at-a-time shift-register bit packing, and a
// division per dequantized value. It is the differential-test oracle for the
// staged codec in bfp.go — TestBFPMatchesReference asserts the production
// path is byte-exact (encode) and bit-exact (decode) against it for every
// mantissa width — and the plainest statement of the format for readers. It
// lives in a test file, so no production path can reach it.

// CompressBFPReference encodes exactly like CompressBFP but via the retained
// reference implementation.
func CompressBFPReference(iq []complex128, mantissaBits int) ([]byte, error) {
	if len(iq)%12 != 0 {
		return nil, fmt.Errorf("fronthaul: %d IQ samples not a multiple of 12", len(iq))
	}
	if mantissaBits < 2 || mantissaBits > 16 {
		return nil, fmt.Errorf("fronthaul: mantissa width %d out of range", mantissaBits)
	}
	nBlocks := len(iq) / 12
	out := make([]byte, 0, nBlocks*BFPBlockBytes(mantissaBits))
	var vals [ValuesPerBlock]float64
	maxMant := float64(int(1)<<(mantissaBits-1)) - 1

	for b := 0; b < nBlocks; b++ {
		for i := 0; i < 12; i++ {
			s := iq[b*12+i]
			vals[2*i] = real(s)
			vals[2*i+1] = imag(s)
		}
		var peak float64
		for _, v := range &vals {
			if a := math.Abs(v); a > peak {
				peak = a
			}
		}
		// Choose exponent e in [0,15] so values scaled by maxMant/2^(e-12)
		// land in [-maxMant, maxMant]: reference amplitude 8 maps to e=15.
		e := 0
		ref := peak / 8
		for e < 15 && float64(int(1)<<e)/float64(1<<15) < ref {
			e++
		}
		scale := 8 * float64(int(1)<<e) / float64(1<<15)
		if scale == 0 {
			scale = 1
		}
		out = append(out, byte(e))
		var acc uint64
		accBits := 0
		for _, v := range &vals {
			q := int64(math.Round(v / scale * maxMant))
			if q > int64(maxMant) {
				q = int64(maxMant)
			}
			if q < -int64(maxMant) {
				q = -int64(maxMant)
			}
			u := uint64(q) & ((1 << mantissaBits) - 1)
			acc = acc<<mantissaBits | u
			accBits += mantissaBits
			for accBits >= 8 {
				out = append(out, byte(acc>>(accBits-8)))
				accBits -= 8
			}
		}
		if accBits > 0 {
			out = append(out, byte(acc<<(8-accBits)))
		}
	}
	return out, nil
}

// DecompressBFPReference decodes exactly like DecompressBFP but via the
// retained reference implementation.
func DecompressBFPReference(data []byte, mantissaBits int) ([]complex128, error) {
	if mantissaBits < 2 || mantissaBits > 16 {
		return nil, fmt.Errorf("fronthaul: mantissa width %d out of range", mantissaBits)
	}
	blockBytes := BFPBlockBytes(mantissaBits)
	if len(data)%blockBytes != 0 {
		return nil, fmt.Errorf("fronthaul: %d bytes not a multiple of block size %d", len(data), blockBytes)
	}
	nBlocks := len(data) / blockBytes
	out := make([]complex128, 0, nBlocks*12)
	maxMant := float64(int(1)<<(mantissaBits-1)) - 1
	signBit := uint64(1) << (mantissaBits - 1)
	mask := uint64(1)<<mantissaBits - 1

	var vals [ValuesPerBlock]float64
	for b := 0; b < nBlocks; b++ {
		blk := data[b*blockBytes : (b+1)*blockBytes]
		e := int(blk[0] & 0x0F)
		scale := 8 * float64(int(1)<<e) / float64(1<<15)
		var acc uint64
		accBits := 0
		pos := 1
		for v := 0; v < ValuesPerBlock; v++ {
			for accBits < mantissaBits {
				acc = acc<<8 | uint64(blk[pos])
				pos++
				accBits += 8
			}
			u := acc >> (accBits - mantissaBits) & mask
			accBits -= mantissaBits
			q := int64(u)
			if u&signBit != 0 {
				q = int64(u) - int64(mask) - 1
			}
			// The encoder never emits the two's-complement minimum; clamp
			// so hostile payloads cannot exceed the nominal dynamic range.
			if q < -int64(maxMant) {
				q = -int64(maxMant)
			}
			vals[v] = float64(q) / maxMant * scale
		}
		for i := 0; i < 12; i++ {
			out = append(out, complex(vals[2*i], vals[2*i+1]))
		}
	}
	return out, nil
}
