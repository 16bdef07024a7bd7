// Package mem is the slot-scoped buffer-pooling layer under the TTI
// pipeline's hot paths. The end-to-end experiments churn hundreds of
// megabytes per simulated second through short-lived staging buffers —
// fronthaul payloads, FAPI wire encodings, LLR vectors, IQ grids, SDU
// staging — whose lifetimes all end at a well-defined pipeline point
// (packet serialized, message encoded, slot drained). This package gives
// those paths size-classed free lists for []byte / []complex128 /
// []float64, typed free lists for structs, and a slot-scoped Arena whose
// leases are recycled in one call at pipeline drain.
//
// Lifetime rules (see DESIGN.md §10 "Memory model"):
//
//   - A leased buffer is owned by exactly one component at a time; Put
//     transfers it back to the pool and the contents become invalid.
//   - Recycling happens only on the event-loop goroutine or at an
//     existing parallel-phase barrier, so pooling can never reorder the
//     deterministic schedule. Workers may Get/Put worker-local staging
//     (the pools are concurrency-safe) but must never recycle a buffer
//     another goroutine still reads.
//   - Losing a buffer (crash paths, dropped frames) is always safe: the
//     GC reclaims it; pools are an optimization, never a correctness
//     requirement.
//
// Any -race build arms a double-free detector; TrackLeases arms leak
// counting and poisons every released lease for the span of one test.
package mem

import (
	"math"
	"sync"
)

// Size classes are powers of two; larger requests fall through to plain
// allocation (they are rare and pooling them would pin large memory).
const (
	minClassShift = 6  // 64
	maxClassShift = 22 // 4 MiB — covers the largest FAPI payload at 3.4 Gbps
	numClasses    = maxClassShift - minClassShift + 1
)

// classFor returns the smallest class index whose capacity holds n, or -1
// when n is out of pooling range.
func classFor(n int) int {
	if n > 1<<maxClassShift {
		return -1
	}
	c := 0
	for s := minClassShift; s < maxClassShift && 1<<s < n; s++ {
		c++
	}
	return c
}

// classUnder returns the largest class index whose capacity is ≤ c, or -1
// when c is below the smallest class (the buffer is not worth keeping).
func classUnder(c int) int {
	if c < 1<<minClassShift {
		return -1
	}
	k := numClasses - 1
	for s := maxClassShift; s > minClassShift && 1<<s > c; s-- {
		k--
	}
	return k
}

// bufStack is one size class's free list. A mutex-guarded stack (rather
// than sync.Pool) keeps the slice header by value, so a Get/Put cycle is
// zero-alloc at steady state — sync.Pool would box the header on every
// Put. Contention is negligible: recycling happens on the event-loop
// goroutine or at phase barriers.
type bufStack[T any] struct {
	mu   sync.Mutex
	free [][]T
}

func (s *bufStack[T]) get() []T {
	s.mu.Lock()
	n := len(s.free)
	if n == 0 {
		s.mu.Unlock()
		return nil
	}
	b := s.free[n-1]
	s.free[n-1] = nil
	s.free = s.free[:n-1]
	s.mu.Unlock()
	return b
}

func (s *bufStack[T]) put(b []T) {
	s.mu.Lock()
	s.free = append(s.free, b)
	s.mu.Unlock()
}

var (
	bytePools    [numClasses]bufStack[byte]
	complexPools [numClasses]bufStack[complex128]
	floatPools   [numClasses]bufStack[float64]
)

// GetBytes leases a []byte of length n (arbitrary contents — the caller
// must fully overwrite the bytes it reads back).
func GetBytes(n int) []byte {
	return GetBytesCap(n)[:n]
}

// GetBytesCap leases a zero-length []byte with capacity ≥ n, for
// append-style fills.
func GetBytesCap(n int) []byte {
	c := classFor(n)
	if c < 0 {
		return make([]byte, 0, n)
	}
	b := bytePools[c].get()
	if b == nil {
		b = make([]byte, 0, 1<<(minClassShift+c))
	}
	detectorLease(b)
	return b[:0]
}

// PutBytes recycles a leased buffer. Safe on nil and on buffers that were
// never pooled (they are filed by capacity class, or dropped when too
// small). The caller must not touch b afterwards.
func PutBytes(b []byte) {
	c := classUnder(cap(b))
	if c < 0 {
		return
	}
	b = b[:0]
	detectorPut(b)
	poison(b, 0xA5)
	bytePools[c].put(b)
}

// GetComplex leases a []complex128 of length n (arbitrary contents).
func GetComplex(n int) []complex128 { return GetComplexCap(n)[:n] }

// GetComplexCap leases a zero-length []complex128 with capacity ≥ n.
func GetComplexCap(n int) []complex128 {
	c := classFor(n)
	if c < 0 {
		return make([]complex128, 0, n)
	}
	if v := complexPools[c].get(); v != nil {
		return v[:0]
	}
	return make([]complex128, 0, 1<<(minClassShift+c))
}

// PutComplex recycles a leased IQ buffer.
func PutComplex(b []complex128) {
	c := classUnder(cap(b))
	if c < 0 {
		return
	}
	poison(b, complex(math.NaN(), math.NaN()))
	complexPools[c].put(b[:0])
}

// GetFloats leases a []float64 of length n (arbitrary contents).
func GetFloats(n int) []float64 { return GetFloatsCap(n)[:n] }

// GetFloatsCap leases a zero-length []float64 with capacity ≥ n.
func GetFloatsCap(n int) []float64 {
	c := classFor(n)
	if c < 0 {
		return make([]float64, 0, n)
	}
	if v := floatPools[c].get(); v != nil {
		return v[:0]
	}
	return make([]float64, 0, 1<<(minClassShift+c))
}

// PutFloats recycles a leased LLR/sample buffer.
func PutFloats(b []float64) {
	c := classUnder(cap(b))
	if c < 0 {
		return
	}
	poison(b, math.NaN())
	floatPools[c].put(b[:0])
}

// Pool is a typed free list for struct staging (fronthaul packets, FAPI
// messages, prepared-block staging). It rides a sync.Pool, so every GC
// empties it.
type Pool[T any] struct {
	p sync.Pool
	// Reset, when set, clears a recycled value before reuse (Put calls it,
	// so secrets/slices never linger in the pool).
	Reset func(*T)
}

// NewPool creates a typed pool. reset may be nil.
func NewPool[T any](reset func(*T)) *Pool[T] {
	return &Pool[T]{Reset: reset}
}

// Get leases a value (the zero value on a pool miss).
func (p *Pool[T]) Get() *T {
	if v, ok := p.p.Get().(*T); ok {
		return v
	}
	return new(T)
}

// Put recycles a value. While TrackLeases is armed it neither resets nor
// recycles v, so a holder that reads v after Put sees the contents the
// Reset would have cleared.
func (p *Pool[T]) Put(v *T) {
	if v == nil || tracking.Load() {
		return
	}
	if p.Reset != nil {
		p.Reset(v)
	}
	p.p.Put(v)
}

// Arena is a slot-scoped lease ledger: buffers leased through it during
// one slot's processing are recycled together by a single ReleaseAll at
// pipeline drain. Not safe for concurrent use — an Arena belongs to the
// event-loop goroutine (or one worker's private staging).
type Arena struct {
	bytes   [][]byte
	complex [][]complex128
	floats  [][]float64
}

// Bytes leases a []byte of length n, tracked for ReleaseAll.
func (a *Arena) Bytes(n int) []byte {
	b := GetBytes(n)
	a.bytes = append(a.bytes, b)
	return b
}

// Complex leases a []complex128 of length n, tracked for ReleaseAll.
func (a *Arena) Complex(n int) []complex128 {
	b := GetComplex(n)
	a.complex = append(a.complex, b)
	return b
}

// Floats leases a []float64 of length n, tracked for ReleaseAll.
func (a *Arena) Floats(n int) []float64 {
	b := GetFloats(n)
	a.floats = append(a.floats, b)
	return b
}

// ReleaseAll recycles every outstanding lease and empties the ledger. The
// Arena itself is reusable for the next slot.
func (a *Arena) ReleaseAll() {
	for i, b := range a.bytes {
		PutBytes(b)
		a.bytes[i] = nil
	}
	a.bytes = a.bytes[:0]
	for i, b := range a.complex {
		PutComplex(b)
		a.complex[i] = nil
	}
	a.complex = a.complex[:0]
	for i, b := range a.floats {
		PutFloats(b)
		a.floats[i] = nil
	}
	a.floats = a.floats[:0]
}

// Outstanding reports the number of tracked leases (test hook).
func (a *Arena) Outstanding() int {
	return len(a.bytes) + len(a.complex) + len(a.floats)
}
