package fec

import (
	"sync"

	"slingshot/internal/par"
)

// DecodeJob is one transport block's decode work for DecodeBatchInto.
type DecodeJob struct {
	Code     *Code
	LLR      []float64
	MaxIters int
	// Info, when its capacity is at least Code.K, receives the decoded
	// info bits and the result's Info aliases it — no per-job allocation.
	// Leave nil to have the batch allocate a fresh copy.
	Info []byte
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
	c.checkLanes(jobs)
	ss := c.getSoAScratch()
	bad := c.syndromeSoA(jobs, ss.hardw)
	if bad == allBad {
		c.decodeSoA(results, jobs, ss)
	} else {
		done := c.soaFinish(results, jobs, ss.hardw, 0, bad, 1, false)
		// The failed lanes share one scalar scratch, free again once
		// finish has copied each lane's info out.
		var s *DecodeScratch
		for l := range jobs {
			if done&(0xff<<(8*l)) != 0 {
				continue
			}
			if s == nil {
				s = c.getScratch()
			}
			results[l] = jobs[l].finish(c.decodeIter(jobs[l].LLR, jobs[l].MaxIters, s))
		}
		if s != nil {
			c.putScratch(s)
		}
	}
	c.putSoAScratch(ss)
}

func (b *batchCtx) decode(i int) {
	j := &b.jobs[i]
	s := j.Code.getScratch()
	b.results[i] = j.finish(j.Code.DecodeWithScratch(j.LLR, j.MaxIters, s))
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

// DecodeBatchInto fans a slot's decodes across the bounded worker pool
// (internal/par) and blocks until all finish, which keeps virtual time
// frozen while workers run. results[i] (len must equal len(jobs)) always
// belongs to jobs[i], whichever worker ran it. Jobs may share one cached
// *Code; scratch is pooled, and with per-job Info buffers a slot decodes
// with zero allocations at steady state (else Info is a fresh copy).
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
