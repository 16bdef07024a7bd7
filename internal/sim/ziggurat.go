package sim

import "math"

// The standard normal sampler is a 256-layer ziggurat (Marsaglia & Tsang
// 2000) over the unnormalised half density f(x) = exp(-x²/2). Layer 0 is
// the base strip — the rectangle [0, R] × [0, f(R)] plus the tail beyond R
// — and layers 1..255 are rectangles [0, x_i] × [f(x_i), f(x_i+1)] stacked
// on it with edges R = x_1 > x_2 > … > x_256 = 0; all 256 have area zigV.
//
// One Uint64 decides the fast path: bits 0–7 pick the layer, bit 8 the
// sign, bits 11–63 are a 53-bit mantissa m. The candidate m·x_i/2⁵³ is
// under the curve for certain when m < k_i = ⌊2⁵³·x_i+1/x_i⌋ — an integer
// compare, decided before any float conversion and alike on every
// architecture. The 1.2 % of draws that fail it go to normSlow: the wedge
// between rectangle and curve, or (layer 0) the tail.
const (
	zigR = 3.6541528853610088    // right edge of the base rectangle
	zigV = 4.9286732339746553e-3 // area of every layer
)

// zigLayer is what the fast path reads: accept when m < k, sample m·w.
type zigLayer struct {
	k uint64  // ⌊2⁵³ · x_i+1 / x_i⌋
	w float64 // x_i / 2⁵³
}

var (
	zigLayers [256]zigLayer
	zigF      [257]float64 // f(x_i) for the wedge test; [0] unused, [256] = f(0) = 1
)

func init() {
	var x [257]float64
	f := func(x float64) float64 { return math.Exp(-0.5 * x * x) }
	x[0] = zigV / f(zigR) // base strip stretched to a rectangle of area V
	x[1] = zigR
	for i := 2; i < 256; i++ { // x[256] stays 0
		x[i] = math.Sqrt(-2 * math.Log(zigV/x[i-1]+f(x[i-1])))
	}
	for i := range zigLayers {
		zigLayers[i] = zigLayer{k: uint64(x[i+1] / x[i] * (1 << 53)), w: x[i] / (1 << 53)}
		zigF[i+1] = f(x[i+1])
	}
}

// Norm returns a standard normal sample.
func (r *RNG) Norm() float64 {
	u := r.Uint64()
	l := &zigLayers[u&0xff]
	if m := u >> 11; m < l.k {
		return zigSigned(float64(int64(m))*l.w, u)
	}
	return r.normSlow(u)
}

// NormFill fills dst with standard normal samples. It is Norm called
// len(dst) times — the same values bit for bit, the generator left in the
// same State — with the xoshiro state held in locals across the fast path.
func (r *RNG) NormFill(dst []float64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range dst {
		u := rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
		l := &zigLayers[u&0xff]
		if m := u >> 11; m < l.k {
			dst[i] = zigSigned(float64(int64(m))*l.w, u)
			continue
		}
		r.s = [4]uint64{s0, s1, s2, s3}
		dst[i] = r.normSlow(u)
		s0, s1, s2, s3 = r.s[0], r.s[1], r.s[2], r.s[3]
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// zigSigned gives the non-negative x the sign in bit 8 of u, branch-free.
func zigSigned(x float64, u uint64) float64 {
	return math.Float64frombits(math.Float64bits(x) | u<<55&(1<<63))
}

// normSlow finishes a draw whose first word u failed the fast-path compare.
// The float64(...) around the wedge's product forbids fusing it into the
// add that follows, so whether a wedge accepts does not depend on the
// architecture having an FMA.
func (r *RNG) normSlow(u uint64) float64 {
	for {
		i := u & 0xff
		m := u >> 11
		x := float64(int64(m)) * zigLayers[i].w
		switch {
		case m < zigLayers[i].k:
			// Only after a rejected wedge drew a fresh word.
		case i == 0:
			// Base strip right of R: sample the tail (Marsaglia 1964).
			for {
				x = r.Exp(1) / zigR
				if y := r.Exp(1); y+y > x*x {
					break
				}
			}
			x += zigR
		case zigF[i]+float64(r.Float64()*(zigF[i+1]-zigF[i])) < math.Exp(-0.5*x*x):
			// Wedge: a uniform height inside the layer fell under the curve.
		default:
			u = r.Uint64()
			continue
		}
		return zigSigned(x, u)
	}
}
