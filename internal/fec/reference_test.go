package fec

import (
	"fmt"
	"math"
)

// This file retains the pre-SIMD-shaped min-sum decoder verbatim: the
// textbook formulation over the per-row rowVars slices, with float sign
// flips and an explicit argmin index. It is the differential-test oracle
// for the flat CSR kernel (ira.go) and the syndrome-first pre-pass
// (syndrome.go), through both entry points — TestDecodeMatchesReference
// and friends assert the production paths are bit-exact against it — and
// the plainest statement of the algorithm for readers. It lives in a test
// file so that no production path can reach it.

// referenceScratch is the reference decoder's working state, laid out the
// way the original decoder kept it: per-row message slices over one flat
// backing array.
type referenceScratch struct {
	c2v       [][]float64
	c2vFlat   []float64
	posterior []float64
	hard      []byte
	info      []byte
}

// NewReferenceScratch allocates reference-decoder scratch for the code.
func (c *Code) NewReferenceScratch() *referenceScratch {
	s := &referenceScratch{
		c2v:       make([][]float64, c.M),
		c2vFlat:   make([]float64, c.edges),
		posterior: make([]float64, c.N),
		hard:      make([]byte, c.N),
		info:      make([]byte, c.K),
	}
	off := 0
	for i, rv := range c.rowVars {
		s.c2v[i] = s.c2vFlat[off : off+len(rv)]
		off += len(rv)
	}
	return s
}

// DecodeReference runs the retained reference min-sum decoder. Semantics
// (inputs, outputs, iteration accounting, early stop) match
// DecodeWithScratch; the returned Info is a fresh copy.
func (c *Code) DecodeReference(llr []float64, maxIters int) DecodeResult {
	s := c.NewReferenceScratch()
	res := c.decodeReferenceWithScratch(llr, maxIters, s)
	res.Info = append([]byte(nil), res.Info...)
	return res
}

func (c *Code) decodeReferenceWithScratch(llr []float64, maxIters int, s *referenceScratch) DecodeResult {
	if len(llr) != c.N {
		panic(fmt.Sprintf("fec: Decode got %d LLRs, code N=%d", len(llr), c.N))
	}
	if maxIters < 1 {
		maxIters = 1
	}
	const alpha = msAlpha

	rowVars := c.rowVars
	c2v := s.c2v
	for i := range s.c2vFlat {
		s.c2vFlat[i] = 0
	}
	posterior := s.posterior
	hard := s.hard

	result := DecodeResult{}
	for iter := 1; iter <= maxIters; iter++ {
		result.Iterations = iter
		// Variable-to-check messages are computed on the fly:
		// v2c(v->i) = llr[v] + sum of c2v from other rows of v.
		// First accumulate posteriors.
		copy(posterior, llr)
		for i, rv := range rowVars {
			for j, v := range rv {
				posterior[v] += c2v[i][j]
			}
		}
		// Check node update (min-sum with normalization).
		for i, rv := range rowVars {
			// Extrinsic v2c = posterior - own c2v.
			sign := 1.0
			min1, min2 := math.Inf(1), math.Inf(1)
			minIdx := -1
			for j, v := range rv {
				m := posterior[v] - c2v[i][j]
				if m < 0 {
					sign = -sign
					m = -m
				}
				if m < min1 {
					min2 = min1
					min1 = m
					minIdx = j
				} else if m < min2 {
					min2 = m
				}
			}
			for j, v := range rv {
				m := posterior[v] - c2v[i][j]
				s := sign
				if m < 0 {
					s = -s
					m = -m
				}
				mag := min1
				if j == minIdx {
					mag = min2
				}
				c2v[i][j] = alpha * s * mag
			}
		}
		// Posterior and hard decision with updated messages.
		copy(posterior, llr)
		for i, rv := range rowVars {
			for j, v := range rv {
				posterior[v] += c2v[i][j]
			}
		}
		for v := range hard {
			if posterior[v] < 0 {
				hard[v] = 1
			} else {
				hard[v] = 0
			}
		}
		if c.checkParity(hard) {
			result.OK = true
			break
		}
	}
	copy(s.info, hard[:c.K])
	result.Info = s.info
	return result
}

// checkParity reports whether all M parity checks are satisfied by the
// hard-decision bits: the reference decoder's stopping rule, written over
// the per-row info taps and the accumulator chain rather than the CSR
// arrays the production kernels walk.
func (c *Code) checkParity(bits []byte) bool {
	var prev byte
	for i, row := range c.rows {
		var s byte
		for _, v := range row {
			s ^= bits[v]
		}
		s ^= bits[c.K+i] ^ prev
		if s != 0 {
			return false
		}
		prev = bits[c.K+i]
	}
	return true
}
