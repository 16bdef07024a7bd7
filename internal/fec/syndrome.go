package fec

import "math"

// Syndrome first. At the SNRs the simulator's cells run at, most blocks
// arrive with channel hard decisions that already satisfy every parity
// check, and the iterative decoder converges in its first iteration. The
// pre-pass below recognises those blocks from the LLR sign bits alone and
// finishes them without a single min-sum pass; every decode entry point
// runs it first and hands only the remaining blocks to the kernels.
//
// Why the result is exactly iteration 1's. Take hard[v] = sign bit of
// llr[v]+0 (the +0 folds -0.0 into +0.0) and suppose no LLR is NaN and
// every check row's XOR of hard bits is 0 — each row's sign product over
// its channel messages is +. Iteration 1's variable-to-check messages are
// the channel LLRs (all c2v start at zero), so the message row i sends to
// variable v is alpha·min|llr| over the row's other taps, signed by the
// row's sign product times v's own sign: with a + row product that is v's
// own sign bit, whatever the magnitude (±0, subnormal or ±Inf included).
// v's posterior llr[v] + Σ c2v is then a sum of terms sharing one sign
// bit — no Inf-Inf, so no NaN — and keeps the sign of llr[v]+0: a
// negative llr[v] stays strictly negative, and a +0/-0/positive one sums
// to a value whose +0 is non-negative. So iteration 1's hard decisions
// equal hard, its parity check passes, and it returns {hard[:K], OK,
// Iterations: 1}. Reporting Iterations 1 keeps decoder work accounting
// (phy.Codec's WorkUnits) and everything downstream of it unchanged.
//
// NaN inputs are refused: a NaN's sign bit says nothing and its
// propagation through the kernels' arithmetic is theirs to define, so any
// block holding one decodes through the iterative path as before.

// syndromeOK is the scalar pre-pass. It writes hard[:K] and reports whether
// the block's hard decisions satisfy all M checks with no NaN input; only
// then does hard[:K] hold the decode. The check re-runs the IRA
// accumulator (EncodeInto) over the hard info bits and compares each
// running XOR with the received parity bit's sign: row i holds iff parity
// bit i equals the accumulator after row i, given rows 0..i-1 hold. That
// is three gathers a row against the CSR walk's five, and it needs no hard
// parity bits at all; on a 256/512 code (2-vCPU amd64) it read 0.9–1.7 µs
// a clean block against 1.7–2.4 µs for hard bits over all N followed by
// parityOKFlat, and 0.26–0.45 against 0.71–0.86 µs on a 6 dB miss.
func (c *Code) syndromeOK(llr []float64, hard []byte) bool {
	k := c.K
	info := llr[:k:k]
	hard = hard[:k:k]
	var worst uint64 // largest magnitude bits seen; > infBits means NaN
	for v, x := range info {
		b := math.Float64bits(x + 0)
		hard[v] = byte(b >> 63)
		worst = max(worst, b&^signMask)
	}
	if worst > infBits {
		return false
	}
	par := llr[k:c.N:c.N]
	taps := c.encTaps
	var acc byte
	for i, x := range par {
		if InfoWeight == 3 {
			t := taps[i*3 : i*3+3 : i*3+3]
			acc ^= hard[t[0]] ^ hard[t[1]] ^ hard[t[2]]
		} else {
			for _, v := range taps[i*InfoWeight : (i+1)*InfoWeight] {
				acc ^= hard[v]
			}
		}
		b := math.Float64bits(x + 0)
		worst = max(worst, b&^signMask)
		if byte(b>>63) != acc {
			return false
		}
	}
	return worst <= infBits
}

// SoALanes is the lane width of the batch pre-pass: syndromeSoA checks
// this many same-code transport blocks at once, their hard decisions
// packed one byte per lane into a uint32 per variable, so one XOR per
// accumulator tap advances four parities.
const SoALanes = 4

// allBad is the packed violation mask meaning "every lane has a violated
// check": hard bits are 0/1 bytes, so a violated lane accumulates exactly
// 1 in its byte.
const allBad = 0x01010101

// syndromeSoA is the pre-pass for one lane group: the four lanes' hard
// decisions packed one byte per lane into hardw, and the accumulator check
// run on all four lanes at once. It returns the packed violation mask: 1
// in a lane's byte when that lane has a violated check or a NaN input, 0
// when its hard decisions are its decode.
func (c *Code) syndromeSoA(jobs []DecodeJob, hardw []uint32) uint32 {
	k, n := c.K, c.N
	l0 := jobs[0].LLR[:n]
	l1 := jobs[1].LLR[:n]
	l2 := jobs[2].LLR[:n]
	l3 := jobs[3].LLR[:n]
	hw := hardw[:n:n]
	var w0, w1, w2, w3 uint64 // per-lane largest magnitude bits
	for v := range hw {
		b0 := math.Float64bits(l0[v] + 0)
		b1 := math.Float64bits(l1[v] + 0)
		b2 := math.Float64bits(l2[v] + 0)
		b3 := math.Float64bits(l3[v] + 0)
		hw[v] = uint32(b0>>63) | uint32(b1>>63)<<8 |
			uint32(b2>>63)<<16 | uint32(b3>>63)<<24
		w0 = max(w0, b0&^signMask)
		w1 = max(w1, b1&^signMask)
		w2 = max(w2, b2&^signMask)
		w3 = max(w3, b3&^signMask)
	}
	var bad uint32
	for l, w := range [SoALanes]uint64{w0, w1, w2, w3} {
		if w > infBits {
			bad |= 1 << (8 * l)
		}
	}
	taps := c.encTaps
	var acc uint32
	for i := 0; i < c.M && bad != allBad; i++ {
		if InfoWeight == 3 {
			t := taps[i*3 : i*3+3 : i*3+3]
			acc ^= hw[t[0]] ^ hw[t[1]] ^ hw[t[2]]
		} else {
			for _, v := range taps[i*InfoWeight : (i+1)*InfoWeight] {
				acc ^= hw[v]
			}
		}
		bad |= acc ^ hw[k+i]
	}
	return bad
}
