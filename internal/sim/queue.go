package sim

import "math/bits"

// Two-tier event queue (DESIGN.md §15). The discrete-event workload is
// dominated by grid-aligned events — slot ticks every TTI, fronthaul
// offsets inside the slot, HARQ and RLF timers a few milliseconds out —
// so the fast path is a calendar queue: a ring of fixed-width time
// buckets covering a sliding ~33 ms window, each bucket a slice kept
// sorted by the engine's canonical (At, seq) key. Popping the head of
// the first occupied bucket is O(1); an occupancy bitmap makes "first
// occupied bucket" a handful of word tests. Events scheduled beyond the
// window (chaos at +2.6 s, TCP RTOs, upgrade holds) go to a backing
// 4-ary min-heap specialized to *event — no container/heap interface
// boxing, no per-element method calls — and are merged by comparing the
// bucket head against the heap root on every pop.
//
// Ordering proof sketch: every pop takes the lexicographic (at, seq)
// minimum of {head of first occupied bucket, heap root}. Bucket slices
// are fully sorted by (at, seq) (binary-insert on push), live events in
// one bucket all share the same at>>bucketShift generation, and the
// circular scan from the clock's own bucket visits generations in
// increasing order, so the first occupied bucket's head is the minimum
// across all buckets. The heap root is the minimum of the heap tier by
// the sift invariant. Hence the queue pops the exact total order the
// seed's single binary heap produced, including equal-time FIFO ties —
// seq assignment in Engine.push is untouched.
//
// Timer.Stop uses lazy deletion: it marks the event removed and
// decrements the live count immediately (Pending and QueueSnapshot
// observe the removal at once, matching an eager heap.Remove), while the
// struct stays in its tier until it surfaces at a head, where it is
// discarded onto the free list.
const (
	// bucketShift gives 65.536 µs buckets — ~7.6 per 500 µs TTI, so one
	// slot's grid (tick, fronthaul offsets, drain) spreads over several
	// buckets instead of piling into one.
	bucketShift = 16
	// numBuckets fixes the calendar window at numBuckets<<bucketShift ≈
	// 33.6 ms — wide enough for every per-slot, HARQ, RLF and supervise
	// timer; only long chaos/upgrade/RTO timers fall through to the heap.
	numBuckets = 512
	bucketMask = numBuckets - 1
	occWords   = numBuckets / 64
	// bucketCap is each bucket's initial capacity, carved from one shared
	// slab on first use so touching a fresh ring position never allocates
	// (a warm engine is steady-state alloc-free even before the ring has
	// wrapped once). Buckets that outgrow it reallocate individually and
	// keep the larger capacity.
	bucketCap = 8
)

// before is the canonical scheduling order: fire time, then FIFO by
// sequence number. It is the single comparison both tiers use.
func before(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// calQueue is the two-tier pending-event store. The zero value is ready
// to use.
type calQueue struct {
	// cur is the global (non-wrapped) bucket index the sweep has
	// reached: no live event exists in any bucket generation below it.
	cur int64
	// live counts queued, non-removed events across both tiers.
	live    int
	heap    []*event
	pos     [numBuckets]int32
	occ     [occWords]uint64
	buckets [numBuckets][]*event
	inited  bool
	// free holds events that left the queue — fired, or discarded after
	// a Timer.Stop — ready for reuse.
	free []*event
}

// get returns a recycled event or a fresh one.
func (q *calQueue) get() *event {
	if n := len(q.free); n > 0 {
		ev := q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		return ev
	}
	return &event{}
}

// put clears an event that left the queue and returns it to the free
// list. Clearing drops closure/arg references so the pool never pins
// payloads.
func (q *calQueue) put(ev *event) {
	*ev = event{}
	q.free = append(q.free, ev)
}

// init carves every bucket's initial storage from one contiguous slab
// (numBuckets × bucketCap pointers, ~32 KiB) — one allocation for the
// engine's whole lifetime instead of one per first-touched bucket.
func (q *calQueue) init() {
	q.inited = true
	slab := make([]*event, numBuckets*bucketCap)
	for b := range q.buckets {
		q.buckets[b] = slab[b*bucketCap : b*bucketCap : (b+1)*bucketCap]
	}
}

// srcHeap is the tier marker min returns for heap-root candidates;
// non-negative sources are bucket ring positions.
const srcHeap = -1

// push queues ev, routing by distance from the calendar window's base.
// The caller has already initialized it via Engine.push.
func (q *calQueue) push(ev *event, now Time) {
	if !q.inited {
		q.init()
	}
	q.live++
	k := int64(ev.at) >> bucketShift
	if nowK := int64(now) >> bucketShift; q.cur < nowK {
		// The clock may have advanced past cur without pops (RunUntil
		// to an idle barrier); live events never exist behind now.
		q.cur = nowK
	}
	if k-q.cur >= numBuckets {
		q.heapPush(ev)
		return
	}
	b := int(k & bucketMask)
	s := q.buckets[b]
	p := int(q.pos[b])
	if len(s) == p {
		// Bucket fully drained (or never used): restart it.
		q.buckets[b] = append(s[:0], ev)
		q.pos[b] = 0
		q.occ[b>>6] |= 1 << (b & 63)
		return
	}
	q.occ[b>>6] |= 1 << (b & 63)
	if !before(ev, s[len(s)-1]) {
		// Common case: monotone arrival within the bucket.
		q.buckets[b] = append(s, ev)
		return
	}
	// Binary upper-bound insert into the undrained tail [p:]: the new
	// event carries the largest seq, so it lands after every equal-At
	// entry, preserving FIFO ties.
	lo, hi := p, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if before(ev, s[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	s = append(s, nil)
	copy(s[lo+1:], s[lo:len(s)-1])
	s[lo] = ev
	q.buckets[b] = s
}

// min returns the next event in (at, seq) order without removing it,
// plus its tier (bucket ring position, or srcHeap). Removed events are
// included — peek/pop discard them. Returns nil when both tiers are
// empty.
func (q *calQueue) min(now Time) (*event, int) {
	if nowK := int64(now) >> bucketShift; q.cur < nowK {
		q.cur = nowK
	}
	var bev *event
	bpos := srcHeap
	// Scan the occupancy bitmap circularly from cur's ring position;
	// the first occupied bucket holds the calendar tier's minimum.
	start := int(q.cur & bucketMask)
	w := start >> 6
	word := q.occ[w] &^ ((1 << (start & 63)) - 1)
	for i := 0; i <= occWords; i++ {
		if word != 0 {
			b := w<<6 + bits.TrailingZeros64(word)
			bev = q.buckets[b][q.pos[b]]
			bpos = b
			break
		}
		w++
		if w == occWords {
			w = 0
		}
		word = q.occ[w]
	}
	if len(q.heap) > 0 {
		if h := q.heap[0]; bev == nil || before(h, bev) {
			return h, srcHeap
		}
	}
	return bev, bpos
}

// take physically removes the event min returned. src is min's tier
// result; the event must still be at that head.
func (q *calQueue) take(ev *event, src int) {
	if src == srcHeap {
		q.heapPop()
		return
	}
	s := q.buckets[src]
	p := int(q.pos[src])
	s[p] = nil // drop the pointer so fired events are collectable
	p++
	if p == len(s) {
		q.buckets[src] = s[:0]
		q.pos[src] = 0
		q.occ[src>>6] &^= 1 << (src & 63)
		return
	}
	q.pos[src] = int32(p)
}

// peek returns the next live event without removing it, recycling
// lazily-removed garbage it surfaces on the way. Returns nil when the
// queue is logically empty.
func (q *calQueue) peek(now Time) *event {
	for {
		ev, src := q.min(now)
		if ev == nil {
			return nil
		}
		if !ev.removed {
			return ev
		}
		q.take(ev, src) // removed garbage: already uncounted by Stop
		q.put(ev)
	}
}

// pop removes and returns what peek would return.
func (q *calQueue) pop(now Time) *event {
	for {
		ev, src := q.min(now)
		if ev == nil {
			return nil
		}
		q.take(ev, src)
		if !ev.removed {
			q.live--
			return ev
		}
		q.put(ev)
	}
}

// snapshot appends every queued non-removed event to out (unsorted).
func (q *calQueue) snapshot(out []QueuedEvent) []QueuedEvent {
	add := func(ev *event) {
		if !ev.removed {
			out = append(out, QueuedEvent{At: ev.at, Seq: ev.seq, Name: ev.name})
		}
	}
	for b := range q.buckets {
		s := q.buckets[b]
		for _, ev := range s[q.pos[b]:] {
			add(ev)
		}
	}
	for _, ev := range q.heap {
		add(ev)
	}
	return out
}

// 4-ary min-heap on (at, seq). Flatter than a binary heap — half the
// levels, so half the cache misses per sift — and every compare is a
// direct struct-field test on *event, no interface dispatch.

func (q *calQueue) heapPush(ev *event) {
	h := append(q.heap, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !before(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	q.heap = h
}

func (q *calQueue) heapPop() {
	h := q.heap
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	q.heap = h
	if n == 0 {
		return
	}
	// Sift down with an inlined 4-way min-child scan.
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if before(h[j], h[m]) {
				m = j
			}
		}
		if !before(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
