package fec

import (
	"bytes"
	"math"
	"testing"

	"slingshot/internal/mem"
	"slingshot/internal/par"
	"slingshot/internal/sim"
)

// These tests pin the syndrome-first pre-pass (syndrome.go) to the
// iterative kernel it stands in front of: a block the pre-pass finishes
// must get exactly iteration 1's result, and a block it refuses must get
// exactly what the iterative kernel alone returns — through the scalar
// entry point and DecodeBatchInto's lane groups alike.

func hasNaN(llr []float64) bool {
	for _, x := range llr {
		if x != x {
			return true
		}
	}
	return false
}

func isFinite(llr []float64) bool {
	for _, x := range llr {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

func sameResult(a, b DecodeResult) bool {
	return a.OK == b.OK && a.Iterations == b.Iterations && bytes.Equal(a.Info, b.Info)
}

// exactLLR maps a codeword to LLRs drawn from hostile magnitudes that all
// carry the right sign: ±0.0, subnormals and +Inf for 0 bits, negative
// subnormals, -Inf and finite values for 1 bits. finite limits the draw
// to finite values.
func exactLLR(coded []byte, rng *sim.RNG, finite bool) []float64 {
	zero := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64,
		0x1p-1040, 1.5, math.MaxFloat64, math.Inf(1)}
	one := []float64{-math.SmallestNonzeroFloat64, -0x1p-1040, -1.5,
		-math.MaxFloat64, math.Inf(-1)}
	nz, no := len(zero), len(one)
	if finite {
		nz, no = nz-1, no-1 // the infinities sit last
	}
	llr := make([]float64, len(coded))
	for i, bit := range coded {
		if bit == 0 {
			llr[i] = zero[rng.Intn(nz)]
		} else {
			llr[i] = one[rng.Intn(no)]
		}
	}
	return llr
}

// checkPrepass pins one block: the pre-pass verdict is "no NaN and the
// sign bits satisfy checkParity"; a pass is exactly iteration 1's output
// (at any MaxIters); every entry point equals the iterative kernel alone;
// and finite blocks equal the reference decoder. It reports the verdict.
func checkPrepass(t *testing.T, c *Code, llr []float64, maxIters int) bool {
	t.Helper()
	hard := make([]byte, c.N)
	pass := c.syndromeOK(llr, hard)
	// signBits's plain llr < 0 is the pre-pass's sign bit of llr+0 for
	// every non-NaN llr.
	if want := !hasNaN(llr) && c.checkParity(signBits(llr, make([]byte, c.N))); pass != want {
		t.Fatalf("pre-pass verdict %v, want %v", pass, want)
	}
	want := c.decodeIter(llr, maxIters, c.NewScratch())
	if pass {
		it1 := c.decodeIter(llr, 1, c.NewScratch())
		if !it1.OK || it1.Iterations != 1 || !bytes.Equal(it1.Info, hard[:c.K]) {
			t.Fatalf("pre-pass passed but iteration 1 gives (ok=%v it=%d), info equal %v",
				it1.OK, it1.Iterations, bytes.Equal(it1.Info, hard[:c.K]))
		}
		if !sameResult(want, it1) {
			t.Fatalf("kernel at %d iterations (ok=%v it=%d) differs from iteration 1",
				maxIters, want.OK, want.Iterations)
		}
	}
	if got := c.DecodeWithScratch(llr, maxIters, c.NewScratch()); !sameResult(got, want) {
		t.Fatalf("DecodeWithScratch (ok=%v it=%d) differs from the kernel (ok=%v it=%d)",
			got.OK, got.Iterations, want.OK, want.Iterations)
	}
	if isFinite(llr) {
		if ref := c.DecodeReference(llr, maxIters); !sameResult(ref, want) {
			t.Fatalf("reference (ok=%v it=%d) differs from the kernel (ok=%v it=%d)",
				ref.OK, ref.Iterations, want.OK, want.Iterations)
		}
	}
	return pass
}

// TestSyndromeFirstMatchesIteration1 drives the scalar pre-pass over exact
// codewords with ±0.0, subnormal and infinite entries (must pass), NaNs
// of either sign (must fall through), single and double sign flips (fall
// through unless the flipped bits still satisfy every check) and 16 dB
// QAM16 blocks (a good share pass: ≈ 40 % at K=256).
func TestSyndromeFirstMatchesIteration1(t *testing.T) {
	for _, c := range []*Code{NewCode(256, 512, 42), Get(64, 128, 3)} {
		rng := sim.NewRNG(77)
		nanPos := math.NaN()
		nanNeg := math.Float64frombits(math.Float64bits(nanPos) | signMask)
		for trial := 0; trial < 200; trial++ {
			coded := c.Encode(randomBits(rng, c.K))
			iters := 1 + rng.Intn(8)

			for _, finite := range []bool{true, false} {
				llr := exactLLR(coded, rng, finite)
				if !checkPrepass(t, c, llr, iters) {
					t.Fatalf("trial %d: exact codeword (finite=%v) refused", trial, finite)
				}
			}

			for _, nan := range []float64{nanPos, nanNeg} {
				llr := exactLLR(coded, rng, trial%2 == 0)
				llr[rng.Intn(c.N)] = nan
				if checkPrepass(t, c, llr, iters) {
					t.Fatalf("trial %d: NaN block passed the pre-pass", trial)
				}
			}

			llr := awgnLLR(coded, 40, rng)
			i := rng.Intn(c.N)
			llr[i] = -llr[i]
			if checkPrepass(t, c, llr, iters) {
				t.Fatalf("trial %d: single flip at bit %d passed", trial, i)
			}
			j := rng.Intn(c.N)
			llr[j] = -llr[j]
			checkPrepass(t, c, llr, iters)
		}

		passed := 0
		const blocks = 200
		for trial := 0; trial < blocks; trial++ {
			llr := qam16LLR(c.Encode(randomBits(rng, c.K)), rng)
			if checkPrepass(t, c, llr, 8) {
				passed++
			}
		}
		if passed < blocks/4 {
			t.Fatalf("K=%d: only %d of %d 16 dB blocks passed; the arm no longer exercises the pre-pass",
				c.K, passed, blocks)
		}
	}
}

// TestSyndromeFirstBatch drives DecodeBatchInto with ragged batches whose
// lane groups mix passing and failing lanes, NaN lanes, and lanes snapped
// to a coarse grid, and pins every job to the scalar entry point on the
// same values (and finite ones to the reference). It also requires that the
// batches really contained all-pass, mixed and all-fail lane groups.
func TestSyndromeFirstBatch(t *testing.T) {
	code := Get(64, 128, 3)
	rng := sim.NewRNG(79)
	var groups [SoALanes + 1]int // lane groups by number of passing lanes
	for trial := 0; trial < 300; trial++ {
		njobs := 1 + rng.Intn(11)
		jobs := make([]DecodeJob, njobs)
		pass := make([]bool, njobs)
		iters := 1 + rng.Intn(8)
		for j := range jobs {
			coded := code.Encode(randomBits(rng, code.K))
			var llr []float64
			switch rng.Intn(5) {
			case 0:
				llr = exactLLR(coded, rng, rng.Bool(0.5))
			case 1:
				llr = awgnLLR(coded, 0.5+3*rng.Float64(), rng)
			case 2:
				llr = awgnLLR(coded, 40, rng)
				i := rng.Intn(code.N)
				llr[i] = -llr[i]
			case 3:
				llr = exactLLR(coded, rng, true)
				llr[rng.Intn(code.N)] = math.NaN()
			default:
				llr = qam16LLR(coded, rng)
			}
			it := iters
			if rng.Bool(0.1) {
				it = 1 + rng.Intn(8) // breaks a lane group now and then
			}
			if isFinite(llr) && rng.Bool(0.3) {
				// A 0.25 grid clamped at ±31.75, where equal edge
				// magnitudes (min1 == min2) are common.
				for i, v := range llr {
					llr[i] = math.Max(-127, math.Min(127, math.Round(4*v))) / 4
				}
			}
			jobs[j] = DecodeJob{Code: code, LLR: llr, MaxIters: it}
			pass[j] = code.syndromeOK(jobs[j].LLR, make([]byte, code.N))
		}
		got := decodeBatch(jobs)
		for j := range jobs {
			want := code.DecodeWithScratch(jobs[j].LLR, jobs[j].MaxIters, code.NewScratch())
			if !sameResult(got[j], want) {
				t.Fatalf("trial %d job %d: batch (ok=%v it=%d) scalar (ok=%v it=%d)",
					trial, j, got[j].OK, got[j].Iterations, want.OK, want.Iterations)
			}
			if isFinite(jobs[j].LLR) {
				if ref := code.DecodeReference(jobs[j].LLR, jobs[j].MaxIters); !sameResult(got[j], ref) {
					t.Fatalf("trial %d job %d: batch differs from the reference", trial, j)
				}
			}
		}
		for i := 0; i+SoALanes <= njobs; {
			same := true
			for k := 1; k < SoALanes; k++ {
				same = same && jobs[i+k].MaxIters == jobs[i].MaxIters
			}
			if !same {
				i++
				continue
			}
			// The lane-group pre-pass must give each lane the scalar
			// verdict — NaN lanes included, whose decode may not show it.
			lanes := make([]DecodeJob, SoALanes)
			for l := range lanes {
				lanes[l] = DecodeJob{Code: code, LLR: jobs[i+l].LLR}
			}
			bad := code.syndromeSoA(lanes, make([]uint32, code.N))
			n := 0
			for l, p := range pass[i : i+SoALanes] {
				if lb := bad >> (8 * l) & 0xff; p != (lb == 0) {
					t.Fatalf("trial %d job %d: lane-group verdict byte %d, scalar pass %v", trial, i+l, lb, p)
				}
				if p {
					n++
				}
			}
			groups[n]++
			i += SoALanes
		}
	}
	if groups[0] == 0 || groups[SoALanes] == 0 || groups[1]+groups[2]+groups[3] == 0 {
		t.Fatalf("lane groups by passing lanes %v: some shape never occurred", groups)
	}
}

// TestDecodeBatchIntoSyndromeAllocs pins the steady state at zero
// allocations for a slot whose blocks all pass the pre-pass, for one whose
// lane groups mix passing and iterating blocks, and for one whose lane
// groups all fail it, so every block iterates.
func TestDecodeBatchIntoSyndromeAllocs(t *testing.T) {
	if mem.DetectorArmed() {
		t.Skip("pool double-free detector armed (-race); its bookkeeping allocates")
	}
	c := Get(256, 512, 42)
	rng := sim.NewRNG(80)
	clean := func() []float64 { return awgnLLR(c.Encode(randomBits(rng, c.K)), 40, rng) }
	noisy := func() []float64 { return awgnLLR(c.Encode(randomBits(rng, c.K)), 1.6, rng) }
	for _, tc := range []struct {
		name  string
		noisy func(i int) bool
	}{
		{"all-pass", func(int) bool { return false }},
		{"mixed", func(i int) bool { return i%4 == 1 }},
		{"all-fail", func(int) bool { return true }},
	} {
		jobs := make([]DecodeJob, 16)
		for i := range jobs {
			llr := clean()
			if tc.noisy(i) {
				llr = noisy()
				if c.syndromeOK(llr, make([]byte, c.K)) {
					t.Fatalf("%s: job %d's 1.6 dB block passes the pre-pass", tc.name, i)
				}
			}
			jobs[i] = DecodeJob{Code: c, LLR: llr, MaxIters: 8, Info: make([]byte, 0, c.K)}
		}
		results := make([]DecodeResult, len(jobs))
		prev := par.SetWorkers(2)
		DecodeBatchInto(results, jobs) // warm worker and scratch pools
		avg := testing.AllocsPerRun(20, func() { DecodeBatchInto(results, jobs) })
		par.SetWorkers(prev)
		if avg != 0 {
			t.Fatalf("%s: steady-state DecodeBatchInto allocates %.1f times, want 0", tc.name, avg)
		}
		iterated := 0
		for _, r := range results {
			if r.Iterations > 1 || !r.OK {
				iterated++
			}
		}
		if tc.name != "all-pass" && iterated == 0 {
			t.Fatalf("%s: no block needed the iterative kernel", tc.name)
		}
	}
}
