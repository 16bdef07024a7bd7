package fec

import (
	"sync"

	"slingshot/internal/par"
)

// DecodeJob is one transport block's decode work for DecodeBatch.
type DecodeJob struct {
	Code     *Code
	LLR      []float64
	MaxIters int
	// Info, when its capacity is at least Code.K, receives the decoded
	// info bits and the result's Info aliases it — no per-job allocation.
	// Leave nil to have the batch allocate a fresh copy.
	Info []byte
	// LLRI8, when non-nil, supplies the block's soft values through the
	// int8 quantized-LLR lane instead of LLR (which is then ignored): the
	// batch dequantizes into pooled scratch and decodes the floats, so the
	// result is bit-identical to decoding the dequantized values and the
	// lane preserves grouping/worker/pooling invariance (llri8.go).
	LLRI8 []int8
	// LLRI8Step is the lane's dequantization step; 0 means LLRI8Step.
	LLRI8Step float64
}

// DecodeBatch fans a slot's transport-block decodes across the bounded
// worker pool (internal/par) and returns results in input order: result i
// always belongs to jobs[i], regardless of which worker ran it, so callers
// observe a schedule-independent merge. Jobs may freely share one cached
// *Code — each decode borrows pooled per-call scratch — and the returned
// Info slices are copies that stay valid indefinitely.
//
// The call blocks until every job has finished; in the simulator this is
// what keeps virtual time frozen while workers run. With SLINGSHOT_WORKERS=1
// the batch degrades to an inline sequential loop in job order.
func DecodeBatch(jobs []DecodeJob) []DecodeResult {
	out := make([]DecodeResult, len(jobs))
	DecodeBatchInto(out, jobs)
	return out
}

// batchCtx carries one DecodeBatchInto call's slices plus long-lived
// closures over itself, so handing work to par.ForEach does not allocate a
// fresh escaping closure per batch. units holds the batch's lane grouping:
// {start, count} runs of jobs, where count == SoALanes marks a group the
// SoA kernel decodes in lockstep and anything smaller decodes through the
// single-block kernel.
type batchCtx struct {
	results []DecodeResult
	jobs    []DecodeJob
	units   [][2]int32
	fn      func(int)
	unitFn  func(int)
}

var batchCtxPool = sync.Pool{New: func() any {
	b := &batchCtx{}
	b.fn = b.decode
	b.unitFn = b.runUnit
	return b
}}

// runUnit decodes one grouped unit on a worker: a leftover run job-by-job,
// or a full lane group. A lane group first runs the syndrome-first
// pre-pass on all four lanes at once (syndrome.go) and records the lanes
// that pass; a group with no passing lane goes through the SoA kernel, and
// otherwise only the failed lanes decode, through the scalar iterative
// kernel.
func (b *batchCtx) runUnit(u int) {
	start, n := int(b.units[u][0]), int(b.units[u][1])
	if n != SoALanes {
		for i := start; i < start+n; i++ {
			b.decode(i)
		}
		return
	}
	c := b.jobs[start].Code
	jobs := b.jobs[start : start+n]
	results := b.results[start : start+n]
	// i8-lane jobs dequantize into borrowed scalar scratch before the
	// pre-pass and the kernels load lanes; both only ever see floats.
	var tmp [SoALanes]*DecodeScratch
	for l := range jobs {
		if jobs[l].LLRI8 != nil {
			s := c.getScratch()
			tmp[l] = s
			jobs[l].LLR = s.dequantLLRI8(jobs[l].LLRI8, jobs[l].LLRI8Step)
		}
	}
	c.checkLanes(jobs)
	ss := c.getSoAScratch()
	bad := c.syndromeSoA(jobs, ss.hardw)
	if bad == allBad {
		c.decodeSoA(results, jobs, ss)
	} else {
		done := c.soaFinish(results, jobs, ss.hardw, 0, bad, 1, false)
		// An i8 lane decodes in the scratch holding its floats; float lanes
		// share one more, free again once finish has copied the info out.
		var spare *DecodeScratch
		for l := range jobs {
			if done&(0xff<<(8*l)) != 0 {
				continue
			}
			s := tmp[l]
			if s == nil {
				if spare == nil {
					spare = c.getScratch()
				}
				s = spare
			}
			results[l] = jobs[l].finish(c.decodeIter(jobs[l].LLR, jobs[l].MaxIters, s))
		}
		if spare != nil {
			c.putScratch(spare)
		}
	}
	c.putSoAScratch(ss)
	for l, s := range &tmp {
		if s != nil {
			jobs[l].LLR = nil
			c.putScratch(s)
		}
	}
}

func (b *batchCtx) decode(i int) {
	j := &b.jobs[i]
	s := j.Code.getScratch()
	llr := j.LLR
	if j.LLRI8 != nil {
		llr = s.dequantLLRI8(j.LLRI8, j.LLRI8Step)
	}
	b.results[i] = j.finish(j.Code.DecodeWithScratch(llr, j.MaxIters, s))
	j.Code.putScratch(s)
}

// finish moves a scratch-aliased result's info bits into j.Info when its
// capacity allows, else into a fresh copy, so the result outlives the
// scratch.
func (j *DecodeJob) finish(res DecodeResult) DecodeResult {
	if cap(j.Info) >= j.Code.K {
		j.Info = j.Info[:j.Code.K]
		copy(j.Info, res.Info)
		res.Info = j.Info
	} else {
		res.Info = append([]byte(nil), res.Info...)
	}
	return res
}

// DecodeBatchInto is DecodeBatch writing into a caller-provided results
// slice (len must equal len(jobs)). Paired with per-job Info buffers it
// decodes a slot's blocks with zero allocations at steady state: scratch
// is pooled, results land in results[i], and info bits land in jobs[i].Info.
//
// Runs of SoALanes consecutive jobs sharing one (Code, MaxIters) form a
// lane group: the syndrome-first pre-pass checks the group's four blocks
// at once on the worker, and blocks it cannot finish are decoded in
// lockstep by the SoA lane-group kernel (soa.go) when none of the four
// passed, else one by one. Leftovers and heterogeneous jobs take the
// single-block path. Every path is bit-exact with the reference decoder,
// so results are independent of the grouping — and therefore of batch
// boundaries, worker count, and pooling.
func DecodeBatchInto(results []DecodeResult, jobs []DecodeJob) {
	if len(results) != len(jobs) {
		panic("fec: DecodeBatchInto results/jobs length mismatch")
	}
	b := batchCtxPool.Get().(*batchCtx)
	b.results, b.jobs = results, jobs
	units := b.units[:0]
	for i := 0; i < len(jobs); {
		n := 1
		if i+SoALanes <= len(jobs) {
			c, it := jobs[i].Code, jobs[i].MaxIters
			same := true
			for k := 1; k < SoALanes; k++ {
				if jobs[i+k].Code != c || jobs[i+k].MaxIters != it {
					same = false
					break
				}
			}
			if same {
				n = SoALanes
			}
		}
		units = append(units, [2]int32{int32(i), int32(n)})
		i += n
	}
	b.units = units
	par.ForEach(len(units), b.unitFn)
	b.results, b.jobs = nil, nil
	batchCtxPool.Put(b)
}

// GetScratch borrows pooled decoder scratch; pair with PutScratch. Hot
// paths use it with DecodeWithScratch to decode with zero allocations.
func (c *Code) GetScratch() *DecodeScratch { return c.getScratch() }

// PutScratch returns borrowed scratch to the pool. The scratch (and any
// DecodeResult.Info aliasing it) must not be used afterwards.
func (c *Code) PutScratch(s *DecodeScratch) { c.putScratch(s) }
