package fec

import (
	"fmt"
	"math"
)

// SoALanes is the lane width of the structure-of-arrays batch decoder:
// decodeSoA advances this many same-code transport blocks in lockstep per
// pass over the Tanner graph. Four lanes keep the hand-unrolled kernels
// inside the amd64 register budget while amortizing every index load,
// bounds check, and loop-control instruction across four blocks; the
// lane-major layout puts one edge's four messages in a single cache line,
// and the four independent min/sum dependency chains fill the latency
// slots that serialize the single-block kernel.
const SoALanes = 4

// rowSumStride is the per-row summary footprint of the first-iteration
// path: raw min1 bits, alpha*min1 bits and alpha*min2 bits (both with the
// row's sign product packed into bit 63), each per lane, interleaved in
// one array so a single subslice bounds check covers all twelve words.
const rowSumStride = 3 * SoALanes

// soaScratch is the lane-major working state of the SoA decoder. Every
// per-edge and per-variable array interleaves the four lanes: edge e,
// lane l lives at index e*SoALanes+l.
type soaScratch struct {
	mbits  []uint64  // staged v2c message bits
	c2v    []float64 // check-to-variable messages
	post   []float64 // posteriors
	lbits  []uint64  // bits(llr+0) per variable (iteration-1 v2c)
	rowSum []uint64  // first-iteration row summaries, rowSumStride per row
	hardw  []uint32  // per-variable hard decisions, one byte per lane
}

func (c *Code) newSoAScratch() *soaScratch {
	return &soaScratch{
		mbits:  make([]uint64, c.edges*SoALanes),
		c2v:    make([]float64, c.edges*SoALanes),
		post:   make([]float64, c.N*SoALanes),
		lbits:  make([]uint64, c.N*SoALanes),
		rowSum: make([]uint64, c.M*rowSumStride),
		hardw:  make([]uint32, c.N),
	}
}

func (c *Code) getSoAScratch() *soaScratch {
	if s, ok := c.soaPool.Get().(*soaScratch); ok {
		return s
	}
	return c.newSoAScratch()
}

func (c *Code) putSoAScratch(s *soaScratch) { c.soaPool.Put(s) }

// allBad is the packed parity accumulator value meaning "every lane has a
// violated check": hard bits are 0/1 bytes, so a violated lane accumulates
// exactly 1 in its byte.
const allBad = 0x01010101

// checkLanes panics unless every lane's LLR vector is N long, so the
// lane-group passes can reslice without checking.
func (c *Code) checkLanes(jobs []DecodeJob) {
	for l := range jobs {
		if len(jobs[l].LLR) != c.N {
			panic(fmt.Sprintf("fec: Decode got %d LLRs, code N=%d", len(jobs[l].LLR), c.N))
		}
	}
}

// soaRow5 reduces one lane of a five-tap row to its sign product and two
// smallest magnitudes — the straight-line body behind the unrolled check
// pass. min1/min2/sign are order-independent reductions, so starting the
// chain from the first two taps instead of infBits is bit-exact with the
// generic loop. Small enough to inline, so the five message words stay in
// registers at the call sites.
func soaRow5(m0, m1, m2, m3, m4 uint64) (sign, min1, min2 uint64) {
	sign = m0 ^ m1 ^ m2 ^ m3 ^ m4
	ab0 := m0 &^ signMask
	ab1 := m1 &^ signMask
	ab2 := m2 &^ signMask
	ab3 := m3 &^ signMask
	ab4 := m4 &^ signMask
	a1, a2 := min(ab0, ab1), max(ab0, ab1)
	a2 = min(a2, max(a1, ab2))
	a1 = min(a1, ab2)
	a2 = min(a2, max(a1, ab3))
	a1 = min(a1, ab3)
	a2 = min(a2, max(a1, ab4))
	a1 = min(a1, ab4)
	return sign, a1, a2
}

// soaPost1 is one lane's iteration-1 posterior contribution from one row:
// the row's alpha-scaled min1 (or min2, when this variable is the row's
// min1) with the row sign and the variable's own sign applied, read from
// the packed summaries. Inlined with constant l at the unrolled call sites.
func soaPost1(rs *[rowSumStride]uint64, l int, ab, ms uint64) float64 {
	pk := rs[SoALanes+l]
	if ab == rs[l] {
		pk = rs[2*SoALanes+l]
	}
	return math.Float64frombits(pk ^ ms)
}

// decodeSoA decodes exactly SoALanes jobs — which must share one Code and
// MaxIters — in lockstep, writing results[l] for jobs[l]. Each lane's
// arithmetic is bit-identical to decodeIter (and therefore to the
// retained reference decoder): the lanes never interact, they only share
// the graph-index streams. A lane that converges is recorded and frozen at
// that iteration (its info bits are extracted immediately); the remaining
// lanes keep iterating until all are resolved or MaxIters is reached.
// Info handling matches DecodeBatchInto: results[l].Info lands in jobs[l].Info
// when its capacity allows, else in a fresh copy. The caller owns s and
// has checked every lane's LLR length (checkLanes).
func (c *Code) decodeSoA(results []DecodeResult, jobs []DecodeJob, s *soaScratch) {
	maxIters := jobs[0].MaxIters
	if maxIters < 1 {
		maxIters = 1
	}
	n := c.N
	// Reslicing to the checked length lets the compiler drop the bounds
	// checks on the linear per-variable streams below.
	l0 := jobs[0].LLR[:n]
	l1 := jobs[1].LLR[:n]
	l2 := jobs[2].LLR[:n]
	l3 := jobs[3].LLR[:n]

	edgeVar, rowStart := c.edgeVar, c.rowStart
	varStart, varEdge, varEdgeRow := c.varStart, c.varEdge, c.varEdgeRow
	mbits, c2v, post, lbits := s.mbits, s.c2v, s.post, s.lbits
	rowSum, hardw := s.rowSum, s.hardw

	// Stage the lane-major channel LLR bits once. The explicit +0 matches
	// the reference's first accumulation pass (it maps -0.0 to +0.0).
	for v := 0; v < n; v++ {
		lb := lbits[v*SoALanes : v*SoALanes+SoALanes : v*SoALanes+SoALanes]
		lb[0] = math.Float64bits(l0[v] + 0)
		lb[1] = math.Float64bits(l1[v] + 0)
		lb[2] = math.Float64bits(l2[v] + 0)
		lb[3] = math.Float64bits(l3[v] + 0)
	}

	// Iteration 1, check pass: with all-zero c2v the v2c messages are the
	// channel LLRs, so each row's outgoing messages reduce to three
	// summary words per lane (see decodeIter). Every IRA row but the
	// first is exactly InfoWeight info taps plus two parity taps (NewCode),
	// so the five-tap body is fully unrolled: the five lane-group gathers
	// issue together and there is no per-edge loop control. min1/min2/sign
	// are order-independent reductions, so the unrolled form is bit-exact
	// with the generic loop.
	rEnd := int(rowStart[0])
	for i := 0; i < c.M; i++ {
		start := rEnd
		rEnd = int(rowStart[i+1])
		var s0, s1, s2, s3 uint64
		a10, a11, a12, a13 := infBits, infBits, infBits, infBits
		a20, a21, a22, a23 := infBits, infBits, infBits, infBits
		if rEnd-start == 5 {
			ev := edgeVar[start : start+5 : start+5]
			t0 := (*[SoALanes]uint64)(lbits[int(ev[0])*SoALanes:])
			t1 := (*[SoALanes]uint64)(lbits[int(ev[1])*SoALanes:])
			t2 := (*[SoALanes]uint64)(lbits[int(ev[2])*SoALanes:])
			t3 := (*[SoALanes]uint64)(lbits[int(ev[3])*SoALanes:])
			t4 := (*[SoALanes]uint64)(lbits[int(ev[4])*SoALanes:])
			s0, a10, a20 = soaRow5(t0[0], t1[0], t2[0], t3[0], t4[0])
			s1, a11, a21 = soaRow5(t0[1], t1[1], t2[1], t3[1], t4[1])
			s2, a12, a22 = soaRow5(t0[2], t1[2], t2[2], t3[2], t4[2])
			s3, a13, a23 = soaRow5(t0[3], t1[3], t2[3], t3[3], t4[3])
		} else {
			for _, vi := range edgeVar[start:rEnd] {
				b := int(vi) * SoALanes
				lb := lbits[b : b+SoALanes : b+SoALanes]
				m0 := lb[0]
				m1 := lb[1]
				m2 := lb[2]
				m3 := lb[3]
				s0 ^= m0
				s1 ^= m1
				s2 ^= m2
				s3 ^= m3
				ab0 := m0 &^ signMask
				ab1 := m1 &^ signMask
				ab2 := m2 &^ signMask
				ab3 := m3 &^ signMask
				a20 = min(a20, max(a10, ab0))
				a10 = min(a10, ab0)
				a21 = min(a21, max(a11, ab1))
				a11 = min(a11, ab1)
				a22 = min(a22, max(a12, ab2))
				a12 = min(a12, ab2)
				a23 = min(a23, max(a13, ab3))
				a13 = min(a13, ab3)
			}
		}
		s0 &= signMask
		s1 &= signMask
		s2 &= signMask
		s3 &= signMask
		r := i * rowSumStride
		rs := rowSum[r : r+rowSumStride : r+rowSumStride]
		rs[0] = a10
		rs[1] = a11
		rs[2] = a12
		rs[3] = a13
		rs[4] = math.Float64bits(msAlpha*math.Float64frombits(a10)) | s0
		rs[5] = math.Float64bits(msAlpha*math.Float64frombits(a11)) | s1
		rs[6] = math.Float64bits(msAlpha*math.Float64frombits(a12)) | s2
		rs[7] = math.Float64bits(msAlpha*math.Float64frombits(a13)) | s3
		rs[8] = math.Float64bits(msAlpha*math.Float64frombits(a20)) | s0
		rs[9] = math.Float64bits(msAlpha*math.Float64frombits(a21)) | s1
		rs[10] = math.Float64bits(msAlpha*math.Float64frombits(a22)) | s2
		rs[11] = math.Float64bits(msAlpha*math.Float64frombits(a23)) | s3
	}

	// Iteration 1, variable pass: posteriors in the reference's row order,
	// hard decisions (strict < 0), packed one byte per lane.
	vEnd := int(varStart[0])
	for v := 0; v < n; v++ {
		b := v * SoALanes
		lb := lbits[b : b+SoALanes : b+SoALanes]
		m0 := lb[0]
		m1 := lb[1]
		m2 := lb[2]
		m3 := lb[3]
		ms0, ab0 := m0&signMask, m0&^signMask
		ms1, ab1 := m1&signMask, m1&^signMask
		ms2, ab2 := m2&signMask, m2&^signMask
		ms3, ab3 := m3&signMask, m3&^signMask
		p0, p1, p2, p3 := l0[v], l1[v], l2[v], l3[v]
		ks := vEnd
		vEnd = int(varStart[v+1])
		// Info variables carry ≈InfoWeight rows and parity variables two
		// (NewCode), so degree-3 and degree-2 bodies cover nearly every
		// variable; both keep the reference's row-order additions.
		switch vr := varEdgeRow[ks:vEnd]; len(vr) {
		case 3:
			rs0 := (*[rowSumStride]uint64)(rowSum[int(vr[0])*rowSumStride:])
			rs1 := (*[rowSumStride]uint64)(rowSum[int(vr[1])*rowSumStride:])
			rs2 := (*[rowSumStride]uint64)(rowSum[int(vr[2])*rowSumStride:])
			p0 += soaPost1(rs0, 0, ab0, ms0)
			p1 += soaPost1(rs0, 1, ab1, ms1)
			p2 += soaPost1(rs0, 2, ab2, ms2)
			p3 += soaPost1(rs0, 3, ab3, ms3)
			p0 += soaPost1(rs1, 0, ab0, ms0)
			p1 += soaPost1(rs1, 1, ab1, ms1)
			p2 += soaPost1(rs1, 2, ab2, ms2)
			p3 += soaPost1(rs1, 3, ab3, ms3)
			p0 += soaPost1(rs2, 0, ab0, ms0)
			p1 += soaPost1(rs2, 1, ab1, ms1)
			p2 += soaPost1(rs2, 2, ab2, ms2)
			p3 += soaPost1(rs2, 3, ab3, ms3)
		case 2:
			rs0 := (*[rowSumStride]uint64)(rowSum[int(vr[0])*rowSumStride:])
			rs1 := (*[rowSumStride]uint64)(rowSum[int(vr[1])*rowSumStride:])
			p0 += soaPost1(rs0, 0, ab0, ms0)
			p1 += soaPost1(rs0, 1, ab1, ms1)
			p2 += soaPost1(rs0, 2, ab2, ms2)
			p3 += soaPost1(rs0, 3, ab3, ms3)
			p0 += soaPost1(rs1, 0, ab0, ms0)
			p1 += soaPost1(rs1, 1, ab1, ms1)
			p2 += soaPost1(rs1, 2, ab2, ms2)
			p3 += soaPost1(rs1, 3, ab3, ms3)
		default:
			for _, ri := range vr {
				rs := (*[rowSumStride]uint64)(rowSum[int(ri)*rowSumStride:])
				p0 += soaPost1(rs, 0, ab0, ms0)
				p1 += soaPost1(rs, 1, ab1, ms1)
				p2 += soaPost1(rs, 2, ab2, ms2)
				p3 += soaPost1(rs, 3, ab3, ms3)
			}
		}
		ps := post[b : b+SoALanes : b+SoALanes]
		ps[0] = p0
		ps[1] = p1
		ps[2] = p2
		ps[3] = p3
		// Branch-free hard decision: the +0 maps -0.0 to +0.0, so the sign
		// bit of p+0 is exactly the reference's strict p < 0 for finite
		// posteriors — the data-dependent branch (the decision IS the block's
		// entropy) becomes four shifts.
		hardw[v] = uint32(math.Float64bits(p0+0)>>63) |
			uint32(math.Float64bits(p1+0)>>63)<<8 |
			uint32(math.Float64bits(p2+0)>>63)<<16 |
			uint32(math.Float64bits(p3+0)>>63)<<24
	}

	var done uint32 // 0xff in a lane's byte once its result is recorded
	iter := 1
	done = c.soaRecord(results, jobs, hardw, done, iter, maxIters)
	if done == 0xffffffff {
		return
	}

	// Materialize iteration 1's c2v from the row summaries and stage
	// iteration 2's v2c bits: v2c = posterior - own c2v. Frozen lanes keep
	// computing (their results are already extracted); masking them would
	// cost more than the wasted arithmetic.
	for v := 0; v < n; v++ {
		b := v * SoALanes
		lb := lbits[b : b+SoALanes : b+SoALanes]
		m0 := lb[0]
		m1 := lb[1]
		m2 := lb[2]
		m3 := lb[3]
		ms0, ab0 := m0&signMask, m0&^signMask
		ms1, ab1 := m1&signMask, m1&^signMask
		ms2, ab2 := m2&signMask, m2&^signMask
		ms3, ab3 := m3&signMask, m3&^signMask
		ps := post[b : b+SoALanes : b+SoALanes]
		p0, p1, p2, p3 := ps[0], ps[1], ps[2], ps[3]
		ks, ke := int(varStart[v]), int(varStart[v+1])
		for k := ks; k < ke; k++ {
			r := int(varEdgeRow[k]) * rowSumStride
			rs := rowSum[r : r+rowSumStride : r+rowSumStride]
			pk0 := rs[4]
			if ab0 == rs[0] {
				pk0 = rs[8]
			}
			pk1 := rs[5]
			if ab1 == rs[1] {
				pk1 = rs[9]
			}
			pk2 := rs[6]
			if ab2 == rs[2] {
				pk2 = rs[10]
			}
			pk3 := rs[7]
			if ab3 == rs[3] {
				pk3 = rs[11]
			}
			cv0 := math.Float64frombits(pk0 ^ ms0)
			cv1 := math.Float64frombits(pk1 ^ ms1)
			cv2 := math.Float64frombits(pk2 ^ ms2)
			cv3 := math.Float64frombits(pk3 ^ ms3)
			e := int(varEdge[k]) * SoALanes
			cs := c2v[e : e+SoALanes : e+SoALanes]
			cs[0] = cv0
			cs[1] = cv1
			cs[2] = cv2
			cs[3] = cv3
			mb := mbits[e : e+SoALanes : e+SoALanes]
			mb[0] = math.Float64bits(p0 - cv0)
			mb[1] = math.Float64bits(p1 - cv1)
			mb[2] = math.Float64bits(p2 - cv2)
			mb[3] = math.Float64bits(p3 - cv3)
		}
	}

	for iter = 2; iter <= maxIters; iter++ {
		// Check-node update from the staged v2c bits: a purely linear
		// lane-major stream, no gathers.
		for i := 0; i < c.M; i++ {
			start, end := int(rowStart[i])*SoALanes, int(rowStart[i+1])*SoALanes
			var s0, s1, s2, s3 uint64
			a10, a11, a12, a13 := infBits, infBits, infBits, infBits
			a20, a21, a22, a23 := infBits, infBits, infBits, infBits
			for e := start; e < end; e += SoALanes {
				mb := mbits[e : e+SoALanes : e+SoALanes]
				m0 := mb[0]
				m1 := mb[1]
				m2 := mb[2]
				m3 := mb[3]
				s0 ^= m0
				s1 ^= m1
				s2 ^= m2
				s3 ^= m3
				ab0 := m0 &^ signMask
				ab1 := m1 &^ signMask
				ab2 := m2 &^ signMask
				ab3 := m3 &^ signMask
				a20 = min(a20, max(a10, ab0))
				a10 = min(a10, ab0)
				a21 = min(a21, max(a11, ab1))
				a11 = min(a11, ab1)
				a22 = min(a22, max(a12, ab2))
				a12 = min(a12, ab2)
				a23 = min(a23, max(a13, ab3))
				a13 = min(a13, ab3)
			}
			s0 &= signMask
			s1 &= signMask
			s2 &= signMask
			s3 &= signMask
			g10 := math.Float64bits(msAlpha * math.Float64frombits(a10))
			g11 := math.Float64bits(msAlpha * math.Float64frombits(a11))
			g12 := math.Float64bits(msAlpha * math.Float64frombits(a12))
			g13 := math.Float64bits(msAlpha * math.Float64frombits(a13))
			g20 := math.Float64bits(msAlpha * math.Float64frombits(a20))
			g21 := math.Float64bits(msAlpha * math.Float64frombits(a21))
			g22 := math.Float64bits(msAlpha * math.Float64frombits(a22))
			g23 := math.Float64bits(msAlpha * math.Float64frombits(a23))
			for e := start; e < end; e += SoALanes {
				mb := mbits[e : e+SoALanes : e+SoALanes]
				m0 := mb[0]
				m1 := mb[1]
				m2 := mb[2]
				m3 := mb[3]
				mg0 := g10
				if m0&^signMask == a10 {
					mg0 = g20
				}
				mg1 := g11
				if m1&^signMask == a11 {
					mg1 = g21
				}
				mg2 := g12
				if m2&^signMask == a12 {
					mg2 = g22
				}
				mg3 := g13
				if m3&^signMask == a13 {
					mg3 = g23
				}
				cs := c2v[e : e+SoALanes : e+SoALanes]
				cs[0] = math.Float64frombits(mg0 | (m0^s0)&signMask)
				cs[1] = math.Float64frombits(mg1 | (m1^s1)&signMask)
				cs[2] = math.Float64frombits(mg2 | (m2^s2)&signMask)
				cs[3] = math.Float64frombits(mg3 | (m3^s3)&signMask)
			}
		}
		// Posterior and hard decision: one gather of varEdge serves four
		// lanes (32 contiguous bytes of c2v per edge).
		for v := 0; v < n; v++ {
			p0, p1, p2, p3 := l0[v], l1[v], l2[v], l3[v]
			ks, ke := int(varStart[v]), int(varStart[v+1])
			for _, ei := range varEdge[ks:ke] {
				e := int(ei) * SoALanes
				cs := c2v[e : e+SoALanes : e+SoALanes]
				p0 += cs[0]
				p1 += cs[1]
				p2 += cs[2]
				p3 += cs[3]
			}
			b := v * SoALanes
			ps := post[b : b+SoALanes : b+SoALanes]
			ps[0] = p0
			ps[1] = p1
			ps[2] = p2
			ps[3] = p3
			// Branch-free hard decision; see the iteration-1 pass.
			hardw[v] = uint32(math.Float64bits(p0+0)>>63) |
				uint32(math.Float64bits(p1+0)>>63)<<8 |
				uint32(math.Float64bits(p2+0)>>63)<<16 |
				uint32(math.Float64bits(p3+0)>>63)<<24
		}
		done = c.soaRecord(results, jobs, hardw, done, iter, maxIters)
		if done == 0xffffffff {
			break
		}
		// Stage the next iteration's v2c bits (only reached when some lane
		// still needs another iteration).
		for v := 0; v < n; v++ {
			b := v * SoALanes
			ps := post[b : b+SoALanes : b+SoALanes]
			p0, p1, p2, p3 := ps[0], ps[1], ps[2], ps[3]
			ks, ke := int(varStart[v]), int(varStart[v+1])
			for _, ei := range varEdge[ks:ke] {
				e := int(ei) * SoALanes
				cs := c2v[e : e+SoALanes : e+SoALanes]
				mb := mbits[e : e+SoALanes : e+SoALanes]
				mb[0] = math.Float64bits(p0 - cs[0])
				mb[1] = math.Float64bits(p1 - cs[1])
				mb[2] = math.Float64bits(p2 - cs[2])
				mb[3] = math.Float64bits(p3 - cs[3])
			}
		}
	}
}

// soaRecord runs the packed parity check and finalizes every lane that
// either converged this iteration or just exhausted MaxIters. It returns
// the updated done mask (0xff per finalized lane). One linear pass over
// the graph serves all four lanes: each variable's four hard bits live in
// one uint32, so the per-row XOR accumulates four parities at once.
func (c *Code) soaRecord(results []DecodeResult, jobs []DecodeJob, hardw []uint32, done uint32, iter, maxIters int) uint32 {
	edgeVar, rowStart := c.edgeVar, c.rowStart
	var bad uint32
	for i := 0; i < c.M; i++ {
		start, end := int(rowStart[i]), int(rowStart[i+1])
		var x uint32
		if end-start == 5 {
			// Five-tap fast path matching the unrolled check pass.
			ev := edgeVar[start : start+5 : start+5]
			x = hardw[ev[0]] ^ hardw[ev[1]] ^ hardw[ev[2]] ^
				hardw[ev[3]] ^ hardw[ev[4]]
		} else {
			for _, vi := range edgeVar[start:end] {
				x ^= hardw[vi]
			}
		}
		bad |= x
		if bad == allBad {
			break
		}
	}
	return c.soaFinish(results, jobs, hardw, done, bad, iter, iter == maxIters)
}

// soaFinish records every lane not yet done whose byte of the packed
// violation mask bad is clear — or every such lane, when last — with its
// info bits extracted from hardw and the given iteration count, and
// returns the updated done mask.
func (c *Code) soaFinish(results []DecodeResult, jobs []DecodeJob, hardw []uint32, done, bad uint32, iter int, last bool) uint32 {
	for l := 0; l < SoALanes; l++ {
		if done&(0xff<<(8*l)) != 0 {
			continue
		}
		ok := bad&(0xff<<(8*l)) == 0
		if !ok && !last {
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
		shift := 8 * l
		for i := range info {
			info[i] = byte(hardw[i] >> shift)
		}
		results[l] = DecodeResult{Info: info, OK: ok, Iterations: iter}
		done |= 0xff << (8 * l)
	}
	return done
}
