package fec

import (
	"bytes"
	"sync"
	"testing"

	"slingshot/internal/par"
	"slingshot/internal/sim"
)

// noisyLLR derives a decodable LLR vector for c from seed.
func noisyLLR(c *Code, seed uint64) []float64 {
	rng := sim.NewRNG(seed)
	info := make([]byte, c.K)
	for i := range info {
		info[i] = byte(rng.Uint64() & 1)
	}
	coded := c.Encode(info)
	llr := make([]float64, c.N)
	for i, bit := range coded {
		s := 1.0
		if bit == 1 {
			s = -1
		}
		llr[i] = s*2.0 + rng.Norm()
	}
	return llr
}

// TestDecodeSharedCodeConcurrently decodes through ONE shared *Code from 8
// goroutines under -race, each borrowing pooled scratch per decode. Before
// the DecodeScratch split, Code carried its min-sum working state
// (c2v/posterior/hard) in shared fields, so every decoder aliasing the
// cached code — e.g. the PHY and a UE holding the same fec.Get result —
// would corrupt each other the moment decodes ran concurrently. This test
// pins the fix: identical results to a sequential reference, no races.
func TestDecodeSharedCodeConcurrently(t *testing.T) {
	c := NewCode(256, 512, 99)
	const goroutines = 8
	const decodesPer = 20

	// Sequential reference outcomes, one stream per goroutine id.
	ref := make([][]DecodeResult, goroutines)
	for g := 0; g < goroutines; g++ {
		ref[g] = make([]DecodeResult, decodesPer)
		for i := 0; i < decodesPer; i++ {
			ref[g][i] = decode(c, noisyLLR(c, uint64(g*1000+i+1)), 8)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < decodesPer; i++ {
				s := c.GetScratch()
				got := c.DecodeWithScratch(noisyLLR(c, uint64(g*1000+i+1)), 8, s)
				want := ref[g][i]
				same := got.OK == want.OK && got.Iterations == want.Iterations &&
					bytes.Equal(got.Info, want.Info)
				c.PutScratch(s)
				if !same {
					errs <- "concurrent decode diverged from sequential reference"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestDecodeBatchMatchesSequential checks the ordered-merge contract:
// DecodeBatchInto over any pool width returns exactly the results a
// sequential job-order loop produces, in input order.
func TestDecodeBatchMatchesSequential(t *testing.T) {
	c := Get(256, 512, 7)
	const n = 32
	jobs := make([]DecodeJob, n)
	for i := range jobs {
		jobs[i] = DecodeJob{Code: c, LLR: noisyLLR(c, uint64(i+1)), MaxIters: 8}
	}
	want := make([]DecodeResult, n)
	for i, j := range jobs {
		want[i] = decode(j.Code, j.LLR, j.MaxIters)
	}
	for _, workers := range []int{1, 4, 16} {
		got := make([]DecodeResult, n)
		prev := par.SetWorkers(workers)
		DecodeBatchInto(got, jobs)
		par.SetWorkers(prev)
		for i := range got {
			if got[i].OK != want[i].OK || got[i].Iterations != want[i].Iterations ||
				!bytes.Equal(got[i].Info, want[i].Info) {
				t.Fatalf("workers=%d: result %d diverged from sequential decode", workers, i)
			}
		}
	}
}

// TestGetConcurrent hammers the memoizing code cache from many goroutines.
func TestGetConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	codes := make([]*Code, 16)
	for g := range codes {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			codes[g] = Get(64, 128, uint64(400+g%2))
		}(g)
	}
	wg.Wait()
	for g := range codes {
		if codes[g] != codes[g%2] {
			t.Fatal("Get returned distinct codes for identical parameters")
		}
	}
}
