package fec

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzJobs decodes fuzz input into a batch of at most 11 jobs on the 64/128
// code. Byte 0 picks the job count and byte 1 the batch's MaxIters (1–8);
// then one control byte per job: bit 0 gives the job its own MaxIters,
// 1 + bits 1–3, and bit 4 XORs the job's LLR signs with a codeword (info
// bits from the job's first raw LLR word), so an all-positive stream
// decodes as that codeword and a few negative words are channel errors.
// The remaining bytes are read cyclically, eight at a time, as raw float64
// bits, so NaN, ±Inf, ±0 and subnormals all occur; with none left every
// LLR is +0.
func fuzzJobs(c *Code, data []byte) []DecodeJob {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	jobs := make([]DecodeJob, 1+int(next())%11)
	iters := 1 + int(next())%8
	ctrl := make([]byte, len(jobs))
	for j := range ctrl {
		ctrl[j] = next()
	}
	pos := 0
	word := func() uint64 {
		if len(data) == 0 {
			return 0
		}
		var w [8]byte
		for k := range w {
			w[k] = data[pos%len(data)]
			pos++
		}
		return binary.LittleEndian.Uint64(w[:])
	}
	for j := range jobs {
		raw := make([]uint64, c.N)
		for v := range raw {
			raw[v] = word()
		}
		if ctrl[j]&0x10 != 0 {
			info := make([]byte, c.K)
			for i := range info {
				info[i] = byte(raw[0]>>(i%64)) & 1
			}
			for v, bit := range c.Encode(info) {
				raw[v] ^= uint64(bit) << 63
			}
		}
		llr := make([]float64, c.N)
		for v, w := range raw {
			llr[v] = math.Float64frombits(w)
		}
		it := iters
		if ctrl[j]&1 != 0 {
			it = 1 + int(ctrl[j]>>1)%8
		}
		jobs[j] = DecodeJob{Code: c, LLR: llr, MaxIters: it}
	}
	return jobs
}

// FuzzDecodeBatch pins DecodeBatchInto — lane groups, the pre-pass and
// leftovers alike — to the single-block entry point on arbitrary batches,
// and to the reference decoder whenever a job's LLRs are all finite.
func FuzzDecodeBatch(f *testing.F) {
	c := Get(64, 128, 3)
	f.Fuzz(func(t *testing.T, data []byte) {
		jobs := fuzzJobs(c, data)
		got := decodeBatch(jobs)
		for j, job := range jobs {
			want := decode(c, job.LLR, job.MaxIters)
			if !sameResult(got[j], want) {
				t.Fatalf("job %d of %d: batch (ok=%v it=%d) differs from DecodeWithScratch (ok=%v it=%d)",
					j, len(jobs), got[j].OK, got[j].Iterations, want.OK, want.Iterations)
			}
			if isFinite(job.LLR) {
				if ref := c.DecodeReference(job.LLR, job.MaxIters); !sameResult(ref, want) {
					t.Fatalf("job %d of %d: reference (ok=%v it=%d) differs from the kernel (ok=%v it=%d)",
						j, len(jobs), ref.OK, ref.Iterations, want.OK, want.Iterations)
				}
			}
		}
	})
}
