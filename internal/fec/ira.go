package fec

import (
	"fmt"
	"math"
	"sync"

	"slingshot/internal/sim"
)

// Code is a systematic irregular repeat-accumulate code: K information bits
// followed by M = N-K parity bits produced by an accumulator over random
// sparse combinations of the information bits. Its parity-check matrix is
// H = [A | T] with A sparse-random (row weight InfoWeight) and T the
// dual-diagonal accumulator, which gives linear-time encoding and a sparse
// Tanner graph for belief-propagation decoding.
type Code struct {
	K, N int // info bits, total coded bits
	M    int // parity bits = N - K

	// rows[i] holds the info-bit column indices checked by parity row i.
	rows [][]int
	// rowVars[i] holds all variable indices of parity row i, including the
	// accumulator parity columns. Retained for the test-only reference
	// decoder (reference_test.go); the production kernels walk the CSR
	// arrays below.
	rowVars [][]int
	// varRows[v] holds, for each variable (coded bit) v, the parity rows
	// that reference it.
	varRows [][]int
	edges   int

	// CSR edge layout of the Tanner graph, row-major: edge e of row i sits
	// at edgeVar[rowStart[i]:rowStart[i+1]] and names the variable column it
	// touches. One flat int32 array replaces the per-row []int pointer
	// chase, so the min-sum inner loops stream contiguous memory.
	edgeVar  []int32
	rowStart []int32
	// Variable-major mirror: varEdge[varStart[v]:varStart[v+1]] lists the
	// edge ids touching variable v in row order (the reference decoder's
	// accumulation order, so posteriors sum bit-identically), and
	// varEdgeRow holds each entry's parity row for the fused parity
	// scatter.
	varStart   []int32
	varEdge    []int32
	varEdgeRow []int32
	// encTaps flattens rows for the encoder: InfoWeight info columns per
	// parity row, contiguous, so EncodeInto streams one int32 array.
	encTaps []int32

	// scratch pools per-decode working state. Decoder scratch used to live
	// directly on Code (c2v/posterior/hard fields), which silently aliased
	// state between every decoder sharing the cached *Code — fine while the
	// whole simulator was single-threaded, but a data race (and a wrong-
	// answer generator: interleaved decodes corrupting each other's
	// messages) the moment two goroutines decode through one Code. Pooled
	// DecodeScratch makes the shared, immutable Tanner graph safe to decode
	// concurrently; see TestDecodeSharedCodeConcurrently.
	scratch sync.Pool
}

// DecodeScratch is the per-call working state of the min-sum decoder:
// check-to-variable messages (flat, CSR edge-indexed), posteriors and hard
// decisions. One scratch serves one in-flight decode; obtain it from
// Code.NewScratch or Code.GetScratch (DecodeBatchInto pools its own) and
// never share it across goroutines.
type DecodeScratch struct {
	c2v    []float64 // per-edge messages, indexed like Code.edgeVar
	mbuf   []uint64  // per-edge v2c message bits, staged between passes
	post   []float64 // per-variable posteriors, kept for v2c staging
	rowSum []uint64  // 3 summary words per row for the first-iteration path
	rowAcc []byte    // per-row parity accumulator
	hard   []byte
	info   []byte   // result staging for DecodeWithScratch
	hardw  []uint32 // a lane group's packed hard decisions (syndromeSoA)
}

// NewScratch allocates decoder scratch sized for the code.
func (c *Code) NewScratch() *DecodeScratch {
	return &DecodeScratch{
		c2v:    make([]float64, c.edges),
		mbuf:   make([]uint64, c.edges),
		post:   make([]float64, c.N),
		rowSum: make([]uint64, 3*c.M),
		rowAcc: make([]byte, c.M),
		hard:   make([]byte, c.N),
		info:   make([]byte, c.K),
		hardw:  make([]uint32, c.N),
	}
}

// getScratch fetches pooled scratch (allocating on first use).
func (c *Code) getScratch() *DecodeScratch {
	if s, ok := c.scratch.Get().(*DecodeScratch); ok {
		return s
	}
	return c.NewScratch()
}

// putScratch returns scratch to the pool.
func (c *Code) putScratch(s *DecodeScratch) { c.scratch.Put(s) }

// InfoWeight is the number of information bits combined per parity row.
const InfoWeight = 3

// NewCode constructs a code with K info bits and N total bits (N > K),
// using seed to derive the sparse connections. The same (K, N, seed) always
// yields the same code, so encoder and decoder agree without sharing state.
func NewCode(k, n int, seed uint64) *Code {
	if k <= 0 || n <= k {
		panic(fmt.Sprintf("fec: invalid code dimensions K=%d N=%d", k, n))
	}
	m := n - k
	c := &Code{K: k, N: n, M: m}
	rng := sim.NewRNG(seed ^ uint64(k)<<20 ^ uint64(n))

	c.rows = make([][]int, m)
	// Ensure every info bit is referenced at least once by dealing the
	// first ceil(m*InfoWeight / k) passes as shuffled permutations.
	deck := make([]int, k)
	for i := range deck {
		deck[i] = i
	}
	pos := k // force reshuffle on first draw
	draw := func() int {
		if pos >= k {
			for i := k - 1; i > 0; i-- {
				j := rng.Intn(i + 1)
				deck[i], deck[j] = deck[j], deck[i]
			}
			pos = 0
		}
		v := deck[pos]
		pos++
		return v
	}
	for i := 0; i < m; i++ {
		row := make([]int, 0, InfoWeight)
		for len(row) < InfoWeight {
			v := draw()
			dup := false
			for _, r := range row {
				if r == v {
					dup = true
					break
				}
			}
			if !dup {
				row = append(row, v)
			}
		}
		c.rows[i] = row
	}

	c.encTaps = make([]int32, 0, m*InfoWeight)
	for _, row := range c.rows {
		for _, v := range row {
			c.encTaps = append(c.encTaps, int32(v))
		}
	}

	// Build variable -> rows adjacency including parity columns.
	c.varRows = make([][]int, n)
	for i, row := range c.rows {
		for _, v := range row {
			c.varRows[v] = append(c.varRows[v], i)
		}
		c.varRows[k+i] = append(c.varRows[k+i], i)
		if i+1 < m {
			// Parity bit i also appears in row i+1 (accumulator chain).
			c.varRows[k+i] = append(c.varRows[k+i], i+1)
		}
	}
	for _, rs := range c.varRows {
		c.edges += len(rs)
	}

	// Flattened per-row adjacency for the decoder: info columns, own
	// parity column K+i, and the previous parity column K+i-1 (i > 0).
	c.rowVars = make([][]int, m)
	for i := range c.rows {
		rv := make([]int, 0, InfoWeight+2)
		rv = append(rv, c.rows[i]...)
		rv = append(rv, k+i)
		if i > 0 {
			rv = append(rv, k+i-1)
		}
		c.rowVars[i] = rv
	}

	// CSR mirror of rowVars for the flat decode kernels.
	c.rowStart = make([]int32, m+1)
	c.edgeVar = make([]int32, 0, c.edges)
	for i, rv := range c.rowVars {
		c.rowStart[i] = int32(len(c.edgeVar))
		for _, v := range rv {
			c.edgeVar = append(c.edgeVar, int32(v))
		}
	}
	c.rowStart[m] = int32(len(c.edgeVar))

	// Variable-major mirror, filled in row order per variable so the
	// kernels' posterior sums run in the reference accumulation order.
	c.varStart = make([]int32, n+1)
	for _, v := range c.edgeVar {
		c.varStart[v+1]++
	}
	for v := 0; v < n; v++ {
		c.varStart[v+1] += c.varStart[v]
	}
	c.varEdge = make([]int32, c.edges)
	c.varEdgeRow = make([]int32, c.edges)
	cursor := append([]int32(nil), c.varStart[:n]...)
	for i := 0; i < m; i++ {
		for e := c.rowStart[i]; e < c.rowStart[i+1]; e++ {
			v := c.edgeVar[e]
			c.varEdge[cursor[v]] = e
			c.varEdgeRow[cursor[v]] = int32(i)
			cursor[v]++
		}
	}
	return c
}

// Rate returns the code rate K/N.
func (c *Code) Rate() float64 { return float64(c.K) / float64(c.N) }

// Encode maps K info bits (one bit per byte, values 0/1) to N coded bits.
// The output is systematic: out[:K] equals info.
func (c *Code) Encode(info []byte) []byte {
	out := make([]byte, c.N)
	c.EncodeInto(out, info)
	return out
}

// EncodeInto is Encode writing into out (len must be N), so per-block hot
// paths can reuse one coded-bit buffer instead of allocating per call.
func (c *Code) EncodeInto(out, info []byte) {
	if len(info) != c.K {
		panic(fmt.Sprintf("fec: Encode got %d bits, code K=%d", len(info), c.K))
	}
	if len(out) != c.N {
		panic(fmt.Sprintf("fec: EncodeInto got %d-bit output, code N=%d", len(out), c.N))
	}
	copy(out, info)
	var acc byte
	par := out[c.K:]
	taps := c.encTaps
	for i := range par {
		if InfoWeight == 3 {
			t := taps[i*3 : i*3+3 : i*3+3]
			acc ^= info[t[0]] ^ info[t[1]] ^ info[t[2]]
		} else {
			for _, v := range taps[i*InfoWeight : (i+1)*InfoWeight] {
				acc ^= info[v]
			}
		}
		par[i] = acc
	}
}

// DecodeResult reports the outcome of an iterative decode.
type DecodeResult struct {
	Info       []byte // K hard-decision info bits
	OK         bool   // parity checks all satisfied
	Iterations int    // iterations actually used
}

// Min-sum constants shared by the kernel and the syndrome pre-pass.
const (
	msAlpha  = 0.8                        // normalization factor for min-sum
	signMask = 1 << 63                    // IEEE-754 double sign bit
	infBits  = uint64(0x7FF0000000000000) // math.Float64bits(+Inf)
)

// post1 is one iteration-1 posterior contribution from one row's summary
// {min1 raw, alpha*min1|sign, alpha*min2|sign}: the self-excluded minimum —
// the argmin edge sees min2; ties are safe because duplicated minima force
// min2 == min1 — with the row sign and the variable's own sign applied.
func post1(rs *[3]uint64, ab, ms uint64) float64 {
	pk := rs[1]
	if ab == rs[0] {
		pk = rs[2]
	}
	return math.Float64frombits(pk ^ ms)
}

// row5 reduces a five-tap row's message bits to its sign product and two
// smallest magnitudes — the straight-line body behind decodeIter's
// iteration-1 check pass. min1/min2/sign are order-independent
// reductions, so starting the chain from the first two taps instead of
// infBits is bit-exact with the generic loop. Small enough to inline, so
// the five message words stay in registers at the call site.
func row5(m0, m1, m2, m3, m4 uint64) (sign, min1, min2 uint64) {
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

// DecodeWithScratch runs normalized min-sum belief propagation over channel
// LLRs (positive = bit 0 more likely, the standard convention) for at most
// maxIters iterations, stopping early once all parity checks pass. More
// iterations strictly improve (or preserve) decode success at a given SNR;
// this is the lever the Fig 11 live-upgrade experiment pulls.
//
// The scratch is caller-owned (NewScratch, or GetScratch/PutScratch), so
// many goroutines may decode on one shared Code. The returned Info aliases
// s.info: it is valid until the next decode with (or pooled reuse of) the
// same scratch — copy it out before releasing s.
//
// A block whose channel hard decisions already satisfy every check is
// finished by the syndrome-first pre-pass (syndrome.go) with iteration 1's
// exact result; only the rest reach the iterative kernel, decodeIter.
func (c *Code) DecodeWithScratch(llr []float64, maxIters int, s *DecodeScratch) DecodeResult {
	if len(llr) != c.N {
		panic(fmt.Sprintf("fec: Decode got %d LLRs, code N=%d", len(llr), c.N))
	}
	if c.syndromeOK(llr, s.hard) {
		copy(s.info, s.hard[:c.K])
		return DecodeResult{Info: s.info, OK: true, Iterations: 1}
	}
	return c.decodeIter(llr, maxIters, s)
}

// decodeIter is the iterative min-sum kernel behind DecodeWithScratch,
// without the pre-pass. It is the flat, branch-free restatement of the
// textbook min-sum loop kept as the test oracle (reference_test.go),
// bit-exact with it for finite LLR inputs (TestDecodeMatchesReference).
// Three structural changes carry the speedup:
//
//   - Messages live in the bit domain: sign products XOR sign bits and the
//     min1/min2 magnitudes use uint64 min/max (the IEEE ordering of
//     non-negative doubles is their integer ordering), which compile to
//     CMOVs — the reference's `m < 0` branch, unpredictable by construction
//     (the signs are the message entropy), disappears.
//
//   - Iteration 1 is specialized: with all-zero c2v the v2c messages are
//     the channel LLRs, so every outgoing message of a check row is fully
//     described by three summary words (raw min |llr| bits, and the two
//     alpha-scaled magnitudes with the row's sign product packed into their
//     otherwise-zero sign bit). The posterior pass reads c2v straight from
//     those summaries, and on the common path — high-SNR blocks that
//     converge immediately — no per-edge message is ever materialized.
//
//   - Later iterations run a flat two-phase schedule over the CSR arrays
//     (check pass over staged v2c bits, then a variable-major posterior/
//     hard-decision pass), and stage the next iteration's v2c only after
//     the parity check fails, so the final iteration never pays for
//     messages it will not use.
func (c *Code) decodeIter(llr []float64, maxIters int, s *DecodeScratch) DecodeResult {
	if maxIters < 1 {
		maxIters = 1
	}
	edgeVar, rowStart := c.edgeVar, c.rowStart
	varStart, varEdge, varEdgeRow := c.varStart, c.varEdge, c.varEdgeRow
	c2v, mbuf, hard := s.c2v, s.mbuf, s.hard
	post, rowSum := s.post, s.rowSum

	result := DecodeResult{Iterations: 1}

	// Iteration 1, check pass: row summaries only. The explicit +0 matches
	// the reference's first accumulation pass exactly (it maps any -0.0
	// LLR to +0.0, as x + 0.0 does). Five-tap rows — all of them but the
	// first (NewCode) — run the straight-line row5 body: the gathers
	// issue together and the loop control disappears.
	for i := 0; i < c.M; i++ {
		start, end := int(rowStart[i]), int(rowStart[i+1])
		var signAcc uint64
		min1, min2 := infBits, infBits
		if end-start == 5 {
			ev := edgeVar[start : start+5 : start+5]
			signAcc, min1, min2 = row5(
				math.Float64bits(llr[ev[0]]+0),
				math.Float64bits(llr[ev[1]]+0),
				math.Float64bits(llr[ev[2]]+0),
				math.Float64bits(llr[ev[3]]+0),
				math.Float64bits(llr[ev[4]]+0))
		} else {
			for e := start; e < end; e++ {
				m := math.Float64bits(llr[edgeVar[e]] + 0)
				signAcc ^= m
				ab := m &^ signMask
				// Two-smallest tracking without branches; keeps the
				// invariant min1 <= min2.
				m2 := min(min2, max(min1, ab))
				min1 = min(min1, ab)
				min2 = m2
			}
		}
		signAcc &= signMask
		// alpha*mag hoisted out of the edge loop (the reference multiplies
		// per edge, but the product is identical). Packing the row sign
		// into the magnitude's sign bit lets the posterior pass recover a
		// full c2v message with one XOR: mag | ((sign ^ m) & signMask).
		rowSum[3*i] = min1
		rowSum[3*i+1] = math.Float64bits(msAlpha*math.Float64frombits(min1)) | signAcc
		rowSum[3*i+2] = math.Float64bits(msAlpha*math.Float64frombits(min2)) | signAcc
	}
	// Iteration 1, variable pass: posterior (summed in the reference's row
	// order per variable, which is varEdgeRow's order) and hard decision
	// (the strict `< 0` of the reference: -0.0 posteriors decide 0, which
	// is why the branch-free form takes the sign bit of p+0). Degree-3 and
	// degree-2 bodies cover nearly every variable (info bits carry
	// ≈InfoWeight rows, parity bits two).
	for v := 0; v < c.N; v++ {
		ks, ke := int(varStart[v]), int(varStart[v+1])
		m := math.Float64bits(llr[v] + 0)
		ms := m & signMask
		ab := m &^ signMask
		p := llr[v]
		switch vr := varEdgeRow[ks:ke]; len(vr) {
		case 3:
			rs0 := (*[3]uint64)(rowSum[3*int(vr[0]):])
			rs1 := (*[3]uint64)(rowSum[3*int(vr[1]):])
			rs2 := (*[3]uint64)(rowSum[3*int(vr[2]):])
			p += post1(rs0, ab, ms)
			p += post1(rs1, ab, ms)
			p += post1(rs2, ab, ms)
		case 2:
			rs0 := (*[3]uint64)(rowSum[3*int(vr[0]):])
			rs1 := (*[3]uint64)(rowSum[3*int(vr[1]):])
			p += post1(rs0, ab, ms)
			p += post1(rs1, ab, ms)
		default:
			for _, ri := range vr {
				p += post1((*[3]uint64)(rowSum[3*int(ri):]), ab, ms)
			}
		}
		post[v] = p
		hard[v] = byte(math.Float64bits(p+0) >> 63)
	}
	if c.parityOKFlat(hard) {
		result.OK = true
		copy(s.info, hard[:c.K])
		result.Info = s.info
		return result
	}
	if maxIters > 1 {
		// Materialize iteration 1's c2v (from the row summaries, exactly
		// the values the posterior pass consumed) and stage iteration 2's
		// v2c bits: v2c = posterior - own c2v.
		for v := 0; v < c.N; v++ {
			ks, ke := int(varStart[v]), int(varStart[v+1])
			m := math.Float64bits(llr[v] + 0)
			ms := m & signMask
			ab := m &^ signMask
			p := post[v]
			for k := ks; k < ke; k++ {
				r := 3 * int(varEdgeRow[k])
				pk := rowSum[r+1]
				if ab == rowSum[r] {
					pk = rowSum[r+2]
				}
				cv := math.Float64frombits(pk ^ ms)
				e := varEdge[k]
				c2v[e] = cv
				mbuf[e] = math.Float64bits(p - cv)
			}
		}
	}

	for iter := 2; iter <= maxIters; iter++ {
		result.Iterations = iter
		// Check-node update (normalized min-sum) from the staged v2c bits:
		// scans and writes contiguous memory with no index gathers at all.
		for i := 0; i < c.M; i++ {
			start, end := int(rowStart[i]), int(rowStart[i+1])
			var signAcc uint64
			min1, min2 := infBits, infBits
			for e := start; e < end; e++ {
				m := mbuf[e]
				signAcc ^= m
				ab := m &^ signMask
				m2 := min(min2, max(min1, ab))
				min1 = min(min1, ab)
				min2 = m2
			}
			signAcc &= signMask
			mag1 := math.Float64bits(msAlpha * math.Float64frombits(min1))
			mag2 := math.Float64bits(msAlpha * math.Float64frombits(min2))
			for e := start; e < end; e++ {
				m := mbuf[e]
				ab := m &^ signMask
				mag := mag1
				if ab == min1 {
					mag = mag2
				}
				c2v[e] = math.Float64frombits(mag | (m^signAcc)&signMask)
			}
		}
		// Posterior and hard decision (branch-free; see iteration 1).
		for v := 0; v < c.N; v++ {
			ks, ke := int(varStart[v]), int(varStart[v+1])
			p := llr[v]
			switch ve := varEdge[ks:ke]; len(ve) {
			case 3:
				p += c2v[ve[0]]
				p += c2v[ve[1]]
				p += c2v[ve[2]]
			case 2:
				p += c2v[ve[0]]
				p += c2v[ve[1]]
			default:
				for _, e := range ve {
					p += c2v[e]
				}
			}
			post[v] = p
			hard[v] = byte(math.Float64bits(p+0) >> 63)
		}
		if c.parityOKFlat(hard) {
			result.OK = true
			break
		}
		if iter == maxIters {
			break
		}
		// Stage the next iteration's v2c bits (only on parity failure —
		// the final iteration never pays for this pass).
		for v := 0; v < c.N; v++ {
			ks, ke := int(varStart[v]), int(varStart[v+1])
			p := post[v]
			for k := ks; k < ke; k++ {
				e := varEdge[k]
				mbuf[e] = math.Float64bits(p - c2v[e])
			}
		}
	}
	copy(s.info, hard[:c.K])
	result.Info = s.info
	return result
}

// parityOKFlat checks all M parity rows over the CSR layout: per-row XOR
// of hard bits with an early exit on the first violated check.
func (c *Code) parityOKFlat(hard []byte) bool {
	edgeVar, rowStart := c.edgeVar, c.rowStart
	for i := 0; i < c.M; i++ {
		start, end := int(rowStart[i]), int(rowStart[i+1])
		var x byte
		if end-start == 5 {
			// Five-tap fast path matching the unrolled check pass.
			ev := edgeVar[start : start+5 : start+5]
			x = hard[ev[0]] ^ hard[ev[1]] ^ hard[ev[2]] ^
				hard[ev[3]] ^ hard[ev[4]]
		} else {
			for e := start; e < end; e++ {
				x ^= hard[edgeVar[e]]
			}
		}
		if x != 0 {
			return false
		}
	}
	return true
}

// Edges returns the Tanner-graph edge count (decoder cost estimate).
func (c *Code) Edges() int { return c.edges }

// codeCache memoizes constructed codes; construction is deterministic so
// sharing is safe across encoders and decoders. The mutex makes Get safe
// from concurrently sharded experiment runs (internal/par seed shards).
var (
	codeCacheMu sync.Mutex
	codeCache   = map[[3]uint64]*Code{}
)

// Get returns a cached code for (k, n, seed), constructing it on first
// use. Safe for concurrent use; the returned *Code may be decoded from
// many goroutines (per-call scratch is pooled, the graph is immutable).
func Get(k, n int, seed uint64) *Code {
	key := [3]uint64{uint64(k), uint64(n), seed}
	codeCacheMu.Lock()
	defer codeCacheMu.Unlock()
	if c, ok := codeCache[key]; ok {
		return c
	}
	c := NewCode(k, n, seed)
	codeCache[key] = c
	return c
}
