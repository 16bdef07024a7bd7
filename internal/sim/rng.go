package sim

import "math"

// RNG is a small deterministic pseudo-random generator (xoshiro256**).
// Each simulated entity owns its own stream so that adding or removing one
// entity does not perturb the randomness seen by others.
type RNG struct {
	s [4]uint64
}

// NewRNG seeds a generator. Distinct seeds give independent-looking streams;
// seed 0 is remapped to a fixed nonzero constant.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	r := &RNG{}
	// SplitMix64 to expand the seed into full state.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Fork derives an independent stream labeled by id.
func (r *RNG) Fork(id uint64) *RNG {
	return NewRNG(r.Uint64() ^ (id * 0xd1342543de82ef95))
}

// State returns the generator's full 256-bit internal state. Snapshots
// serialize it to prove two RNG streams are at the same point; two RNGs
// with equal state produce identical output forever.
func (r *RNG) State() [4]uint64 { return r.s }

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormMeanStd returns a normal sample with the given mean and std deviation.
func (r *RNG) NormMeanStd(mean, std float64) float64 {
	return mean + std*r.Norm()
}

// Exp returns an exponential sample with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	return -mean * math.Log(1-r.Float64())
}

// Jitter returns a uniform value in [-amp, +amp].
func (r *RNG) Jitter(amp float64) float64 {
	return (2*r.Float64() - 1) * amp
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Perm returns a random permutation of [0, n) (Fisher-Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
