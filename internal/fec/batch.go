package fec

import (
	"fmt"
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
// {start, count} runs of jobs, where count == SoALanes marks a group that
// runs the pre-pass four lanes at once and anything smaller decodes job by
// job.
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
// or a full lane group. A lane group runs the syndrome-first pre-pass on
// all four lanes at once (syndrome.go) and records the lanes that pass;
// the failed lanes then decode one by one through the iterative kernel,
// sharing the scratch that held the pre-pass's hard decisions.
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
	s := c.getScratch()
	bad := c.syndromeSoA(jobs, s.hardw)
	c.soaFinish(results, jobs, s.hardw, bad)
	for l := range jobs {
		if bad&(0xff<<(8*l)) != 0 {
			results[l] = jobs[l].finish(c.decodeIter(jobs[l].LLR, jobs[l].MaxIters, s))
		}
	}
	c.putScratch(s)
}

// checkLanes panics unless every lane's LLR vector is N long, so the
// lane-group pre-pass can reslice without checking.
func (c *Code) checkLanes(jobs []DecodeJob) {
	for l := range jobs {
		if len(jobs[l].LLR) != c.N {
			panic(fmt.Sprintf("fec: Decode got %d LLRs, code N=%d", len(jobs[l].LLR), c.N))
		}
	}
}

// soaFinish records every lane whose byte of the packed violation mask bad
// is clear — its hard decisions are its decode — with its info bits
// extracted from hardw and Iterations 1. Info lands in jobs[l].Info when
// its capacity allows, else in a fresh copy.
func (c *Code) soaFinish(results []DecodeResult, jobs []DecodeJob, hardw []uint32, bad uint32) {
	for l := range jobs {
		shift := 8 * l
		if bad&(0xff<<shift) != 0 {
			continue
		}
		j := &jobs[l]
		var info []byte
		if cap(j.Info) >= c.K {
			j.Info = j.Info[:c.K]
			info = j.Info
		} else {
			info = make([]byte, c.K)
		}
		for i := range info {
			info[i] = byte(hardw[i] >> shift)
		}
		results[l] = DecodeResult{Info: info, OK: true, Iterations: 1}
	}
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
// at once on the worker, and blocks it cannot finish decode one by one
// through the iterative kernel. Leftovers and heterogeneous jobs take the
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
