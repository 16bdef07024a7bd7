package sim

import (
	"math"
	"testing"
)

// normQ is the standard normal's upper tail mass P(X > x).
func normQ(x float64) float64 { return 0.5 * math.Erfc(x/math.Sqrt2) }

// within fails the test unless got lies inside nSigma standard errors of
// want.
func within(t *testing.T, name string, got, want, se float64) {
	t.Helper()
	const nSigma = 4
	d := math.Abs(got-want) / se
	t.Logf("%s = %.6g, expected %.6g: %.2f σ", name, got, want, d)
	if !(d <= nSigma) {
		t.Errorf("%s = %.6g, want %.6g ± %.2g", name, got, want, nSigma*se)
	}
}

// TestRNGNormMoments is the distribution gate of the normal generator: one
// fixed-seed pass over 2²⁴ draws, every statistic inside four standard
// errors of its sampling distribution under N(0, 1). Mean and variance
// alone are blind to a ziggurat whose tail or wedge is wrong; the tail
// counts and the χ² are not.
func TestRNGNormMoments(t *testing.T) {
	const (
		n      = 1 << 24
		bins   = 160 // [-4, 4) in steps of 0.05, plus one bin per tail
		lo, hi = -4.0, 4.0
		width  = (hi - lo) / bins
	)
	var (
		s1, s2, s3, s4 float64 // power sums
		lag1, pair     float64 // Σ x[i-1]·x[i] over all i, and over odd i only
		hist           [bins + 2]int
		pos            int // draws above zero
		beyond3        int // |x| > 3
		beyondR        int // |x| > zigR: only the tail sampler gets there
		beyond4p5      int
		prev           float64
	)
	const fn = float64(n)
	binomialSE := func(p float64) float64 { return math.Sqrt(fn * p * (1 - p)) }
	r := NewRNG(11)
	for i := 0; i < n; i++ {
		x := r.Norm()
		x2 := x * x
		s1 += x
		s2 += x2
		s3 += x2 * x
		s4 += x2 * x2
		if i > 0 {
			lag1 += prev * x
			if i&1 == 1 {
				pair += prev * x // (x[i-1], x[i]) become one sample's I and Q
			}
		}
		prev = x
		if x > 0 {
			pos++
		}
		a := math.Abs(x)
		if a > 3 {
			beyond3++
			if a > zigR {
				beyondR++
				if a > 4.5 {
					beyond4p5++
				}
			}
		}
		switch {
		case x < lo:
			hist[0]++
		case x >= hi:
			hist[bins+1]++
		default:
			hist[1+int((x-lo)/width)]++
		}
	}

	t.Run("moments", func(t *testing.T) {
		mean := s1 / fn
		m2 := s2/fn - mean*mean
		m3 := s3/fn - 3*mean*s2/fn + 2*mean*mean*mean
		m4 := s4/fn - 4*mean*s3/fn + 6*mean*mean*s2/fn - 3*mean*mean*mean*mean
		within(t, "mean", mean, 0, 1/math.Sqrt(fn))
		within(t, "variance", m2, 1, math.Sqrt(2/fn))
		within(t, "skewness", m3/math.Pow(m2, 1.5), 0, math.Sqrt(6/fn))
		within(t, "excess kurtosis", m4/(m2*m2)-3, 0, math.Sqrt(24/fn))
	})

	t.Run("chi2", func(t *testing.T) {
		// Bin masses as differences of upper-tail masses on the bin's own
		// side of zero, so the far bins keep their relative precision.
		expected := func(i int) float64 {
			a, b := lo+float64(i-1)*width, lo+float64(i)*width
			switch {
			case i == 0 || i == bins+1:
				return fn * normQ(hi)
			case b <= 0:
				return fn * (normQ(-b) - normQ(-a))
			default:
				return fn * (normQ(a) - normQ(b))
			}
		}
		var total, chi2 float64
		for i, got := range hist {
			e := expected(i)
			if e < 50 {
				t.Fatalf("bin %d expects only %.1f draws", i, e)
			}
			total += e
			chi2 += (float64(got) - e) * (float64(got) - e) / e
		}
		if math.Abs(total-fn) > 1e-6*fn {
			t.Fatalf("bin masses sum to %.1f, want %d", total, n)
		}
		const degrees = bins + 1
		within(t, "chi2", chi2, degrees, math.Sqrt(2*degrees))
	})

	t.Run("tails", func(t *testing.T) {
		for _, c := range []struct {
			name string
			got  int
			x    float64
		}{
			{"|x| > 3", beyond3, 3},
			{"|x| > R (the tail path)", beyondR, zigR},
			{"|x| > 4.5", beyond4p5, 4.5},
		} {
			p := 2 * normQ(c.x)
			within(t, c.name, float64(c.got), fn*p, binomialSE(p))
		}
		if beyond4p5 == 0 {
			t.Errorf("no draw beyond 4.5 σ in %d", n)
		}
	})

	t.Run("symmetry", func(t *testing.T) {
		within(t, "positive draws", float64(pos), fn/2, binomialSE(0.5))
	})

	t.Run("correlation", func(t *testing.T) {
		within(t, "lag-1 autocorrelation", lag1/(fn-1), 0, 1/math.Sqrt(fn-1))
		within(t, "I/Q pair correlation", pair/(fn/2), 0, 1/math.Sqrt(fn/2))
	})
}

// TestZigTables pins the invariants the sampler's correctness rests on:
// strictly decreasing layer edges from R to 0, and 256 layers of equal
// area — the base strip including its tail, every rectangle above it.
func TestZigTables(t *testing.T) {
	var x [257]float64
	for i := range zigLayers {
		x[i] = zigLayers[i].w * (1 << 53)
	}
	if x[1] != zigR || zigF[256] != 1 {
		t.Fatalf("x[1] = %v, f(x[256]) = %v; want R and 1", x[1], zigF[256])
	}
	for i := 0; i < 256; i++ {
		if !(x[i+1] < x[i]) {
			t.Fatalf("edge %d = %v is not below edge %d = %v", i+1, x[i+1], i, x[i])
		}
		// The fast path accepts m·w < x[i+1]; k must not overshoot it.
		if k := zigLayers[i].k; float64(k)*zigLayers[i].w > x[i+1] || k >= 1<<53 {
			t.Fatalf("layer %d: threshold %d reaches past the next edge", i, k)
		}
		if i > 0 && math.Abs(zigF[i]-math.Exp(-0.5*x[i]*x[i])) > 1e-16 {
			t.Fatalf("zigF[%d] = %v is not f(%v)", i, zigF[i], x[i])
		}
	}
	const tol = 1e-12
	base := zigR*zigF[1] + math.Sqrt(math.Pi/2)*math.Erfc(zigR/math.Sqrt2)
	if math.Abs(base/zigV-1) > tol || math.Abs(x[0]*zigF[1]/zigV-1) > tol {
		t.Errorf("base strip area %v (stretched %v), want %v", base, x[0]*zigF[1], zigV)
	}
	for i := 1; i < 256; i++ {
		if a := x[i] * (zigF[i+1] - zigF[i]); math.Abs(a/zigV-1) > tol {
			t.Errorf("layer %d area %v, want %v (rel. error %.2g)", i, a, zigV, a/zigV-1)
		}
	}
	// 256 layers of area V cover half the density: V = √(π/2) / 256 / the
	// ziggurat's acceptance rate, which must be a little under 1.
	if eff := math.Sqrt(math.Pi/2) / (256 * zigV); eff < 0.98 || eff >= 1 {
		t.Errorf("acceptance rate %.4f, want in [0.98, 1)", eff)
	}
}

// wordsDrawn reports how many Uint64 steps lead from state `from` to the
// state r is in now.
func wordsDrawn(t *testing.T, from [4]uint64, r *RNG) int {
	t.Helper()
	shadow := &RNG{s: from}
	for n := 0; n <= 64; n++ {
		if shadow.State() == r.State() {
			return n
		}
		shadow.Uint64()
	}
	t.Fatal("generator state is not a continuation of its earlier state")
	return 0
}

// slowPathSeed is a seed whose first 63 draws take every path of the
// sampler; TestNormFillMatchesNorm verifies that before relying on it.
const slowPathSeed = 555

// TestNormFillMatchesNorm pins the contract the batch kernels rest on:
// NormFill(dst) is Norm called len(dst) times — same bits, same State —
// at lengths around every chunk size in use, over a prefix that leaves the
// fast path in all three ways (wedge accepted, wedge rejected, tail).
func TestNormFillMatchesNorm(t *testing.T) {
	var wedgeAccept, wedgeReject, tail bool
	r := NewRNG(slowPathSeed)
	for i := 0; i < 63; i++ {
		before := r.State()
		x := r.Norm()
		switch words := wordsDrawn(t, before, r); {
		case math.Abs(x) > zigR:
			tail = true // only the tail sampler returns past R
		case words == 2:
			wedgeAccept = true // layer word + one uniform height
		case words > 2:
			wedgeReject = true
		}
	}
	if !wedgeAccept || !wedgeReject || !tail {
		t.Fatalf("seed %d's first 63 draws: wedge accept %v, wedge reject %v, tail %v; want all three",
			slowPathSeed, wedgeAccept, wedgeReject, tail)
	}

	for _, n := range []int{0, 1, 2, 63, 64, 65, 4096} {
		one, fill := NewRNG(slowPathSeed), NewRNG(slowPathSeed)
		want := make([]float64, n)
		for i := range want {
			want[i] = one.Norm()
		}
		got := make([]float64, n+1)
		got[n] = 42 // NormFill must not write past len(dst)
		fill.NormFill(got[:n])
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d: draw %d is %v from NormFill, %v from Norm", n, i, got[i], want[i])
			}
		}
		if got[n] != 42 {
			t.Fatalf("n=%d: NormFill wrote past its destination", n)
		}
		if fill.State() != one.State() {
			t.Fatalf("n=%d: State differs after NormFill and after %d × Norm", n, n)
		}
	}

	buf := make([]float64, 4096)
	if avg := testing.AllocsPerRun(20, func() { r.NormFill(buf) }); avg != 0 {
		t.Fatalf("NormFill allocates %.1f times per call, want 0", avg)
	}
}

// TestNormGolden pins random stream v2 at its source. Every noise sample,
// and through them every HARQ decision in every report, follows from these
// bits: a change that moves them must fail here, by name, and not as an
// unexplained BLER shift three layers up.
func TestNormGolden(t *testing.T) {
	want := [16]uint64{
		0x3fe7ce06c09208f6, 0x3fd7c171454ecfad, 0xbff7fba70d88d6c6, 0xbfdfe30ff7b8b803,
		0x3ff21f5608135c20, 0xbfd5be0fe9bd5003, 0x3faba98ec471ceab, 0x3fe05aee1cf24e98,
		0x4000842ba9557b82, 0xbfe1220a686354fc, 0x3fecb5d141781b27, 0x3ff39a92e2ab0648,
		0x3fe269e100456e3d, 0x3ff6d9d1b476c452, 0xbfe17846c1be84fc, 0xc0008f24dfd6b33a,
	}
	r := NewRNG(1)
	for i, w := range want {
		if got := math.Float64bits(r.Norm()); got != w {
			t.Errorf("NewRNG(1) draw %d = %#016x (%v), want %#016x (%v)",
				i, got, math.Float64frombits(got), w, math.Float64frombits(w))
		}
	}
}
