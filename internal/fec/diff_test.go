package fec

import (
	"math"
	"testing"

	"slingshot/internal/sim"
)

// These tests pin the flat kernel and both entry points to the retained
// reference decoder (reference_test.go): same info bits, same OK verdict,
// same iteration count, for convergent and non-convergent inputs alike.
// They are the contract that lets the hot paths restructure freely — any
// reordering that changes a floating-point result or a tie-break shows up
// here.

// TestDecodeMatchesReference drives the scalar kernel and the reference
// with identical hostile LLRs (pure noise, so many trials never converge
// and exercise the full-iteration paths — and none passes the
// syndrome-first pre-pass; TestSyndromeFirstMatchesIteration1 covers it).
func TestDecodeMatchesReference(t *testing.T) {
	c := NewCode(256, 512, 42)
	rng := sim.NewRNG(99)
	for trial := 0; trial < 800; trial++ {
		llr := make([]float64, c.N)
		for i := range llr {
			llr[i] = rng.Norm() * 3
		}
		want := c.DecodeReference(llr, 8)
		got := decode(c, llr, 8)
		if got.OK != want.OK || got.Iterations != want.Iterations {
			t.Fatalf("trial %d: got (%v,%d) want (%v,%d)",
				trial, got.OK, got.Iterations, want.OK, want.Iterations)
		}
		for i := range want.Info {
			if got.Info[i] != want.Info[i] {
				t.Fatalf("trial %d: info bit %d differs", trial, i)
			}
		}
	}
}

// TestDecodeBatchMatchesReference drives DecodeBatchInto with ragged batches —
// lane groups plus leftovers, mixed per-job iteration limits, noisy
// codewords spanning convergent and non-convergent SNRs — and checks every
// job against the reference. Trials from 300 on add a high-SNR arm
// (≈ 10–17 dB), where most blocks finish in the syndrome-first pre-pass
// and lane groups mix pre-pass and iterating blocks.
func TestDecodeBatchMatchesReference(t *testing.T) {
	code := Get(64, 128, 3)
	rng := sim.NewRNG(99)
	for trial := 0; trial < 400; trial++ {
		njobs := 1 + rng.Intn(11)
		jobs := make([]DecodeJob, njobs)
		want := make([]DecodeResult, njobs)
		for j := range jobs {
			info := make([]byte, code.K)
			for i := range info {
				info[i] = byte(rng.Intn(2))
			}
			coded := code.Encode(info)
			snr := 0.5 + 3*rng.Float64()
			if trial >= 300 && rng.Bool(0.8) {
				snr = 10 + 40*rng.Float64()
			}
			llr := make([]float64, code.N)
			for i, bit := range coded {
				s := 1.0
				if bit == 1 {
					s = -1.0
				}
				llr[i] = 2*snr*s + rng.Norm()*math.Sqrt(2*snr)
			}
			iters := 1 + rng.Intn(8)
			jobs[j] = DecodeJob{Code: code, LLR: llr, MaxIters: iters}
			want[j] = code.DecodeReference(llr, iters)
		}
		got := decodeBatch(jobs)
		for j := range jobs {
			if got[j].OK != want[j].OK || got[j].Iterations != want[j].Iterations {
				t.Fatalf("trial %d job %d: got (ok=%v it=%d) want (ok=%v it=%d)",
					trial, j, got[j].OK, got[j].Iterations, want[j].OK, want[j].Iterations)
			}
			for i := range got[j].Info {
				if got[j].Info[i] != want[j].Info[i] {
					t.Fatalf("trial %d job %d: info bit %d differs", trial, j, i)
				}
			}
		}
	}
}
