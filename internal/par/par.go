// Package par is the deterministic parallel execution layer for the
// compute-heavy, virtual-time-free parts of the stack (FEC decode batches,
// DL encode batches, multi-seed experiment shards).
//
// The concurrency contract (DESIGN.md "Concurrency model"):
//
//   - Callers block until every task of a batch has finished, so simulated
//     virtual time NEVER advances while workers run. The discrete-event
//     engine stays single-threaded; workers only ever execute pure(ish)
//     compute whose inputs were captured on the event-loop goroutine.
//   - Results are merged by index: task i writes slot i, so the assembled
//     output is independent of worker scheduling.
//   - The pool is GOMAXPROCS wide at start. A width of 1 (GOMAXPROCS=1, or
//     SetWorkers(1)) degrades every batch to an inline sequential loop on
//     the caller's goroutine — the exact schedule the sequential simulator
//     had, which the workers=1-vs-N determinism tests compare against.
//
// Total in-flight workers across nested batches are bounded by a global
// token pool of Workers()-1 extra goroutines. Nested ForEach calls that
// find the pool drained simply run inline instead of blocking, which makes
// nesting (seed-shard outside, decode-batch inside) deadlock-free.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

var (
	mu       sync.Mutex
	maxExtra int // extra worker goroutines allowed beyond the callers
	inFlight int // extra workers currently running
	started  int // persistent worker goroutines spawned so far
)

// workCh feeds parked persistent workers. Each send hands one worker a
// batch to help with; workers park between batches instead of being
// respawned, so a steady-state batch spawns no goroutines and allocates
// nothing inside this package.
var workCh = make(chan *batchState, 64)

// batchState is the shared claim counter for one ForEach call, recycled
// across batches.
type batchState struct {
	fn   func(int)
	n    int64
	next atomic.Int64
	wg   sync.WaitGroup
}

var batchPool = sync.Pool{New: func() any { return new(batchState) }}

func worker() {
	for b := range workCh {
		b.run()
		b.wg.Done()
	}
}

func (b *batchState) run() {
	for {
		i := b.next.Add(1) - 1
		if i >= b.n {
			return
		}
		b.fn(int(i))
	}
}

func init() {
	SetWorkers(runtime.GOMAXPROCS(0))
}

// Workers returns the configured worker-pool width (≥1). 1 means fully
// sequential execution.
func Workers() int {
	mu.Lock()
	defer mu.Unlock()
	return maxExtra + 1
}

// SetWorkers overrides the pool width and returns the previous value.
// Intended for tests (workers=1 vs workers=N determinism) and benchmarks
// that pin their width; safe to call between batches.
func SetWorkers(n int) (prev int) {
	if n < 1 {
		n = 1
	}
	mu.Lock()
	defer mu.Unlock()
	prev = maxExtra + 1
	maxExtra = n - 1
	return prev
}

// tryAcquire grabs up to want extra-worker tokens without blocking, and
// guarantees a parked worker exists for each token: every in-flight token
// is either a pending workCh send or a worker mid-batch, so keeping
// started ≥ inFlight means every send finds an idle worker even when
// nested batches fan out.
func tryAcquire(want int) int {
	mu.Lock()
	defer mu.Unlock()
	free := maxExtra - inFlight
	if free <= 0 {
		return 0
	}
	if want > free {
		want = free
	}
	inFlight += want
	for started < inFlight {
		go worker()
		started++
	}
	return want
}

func release(n int) {
	mu.Lock()
	inFlight -= n
	mu.Unlock()
}

// ForEach runs fn(0..n-1) across the worker pool and returns once every
// call has completed. Tasks are claimed from a shared counter, so the
// execution interleaving is nondeterministic — fn must only communicate
// through its index (write slot i of a result slice, never append to a
// shared one). With a pool width of 1 (or when the token pool is drained
// by an enclosing batch) the loop runs inline on the caller's goroutine in
// ascending index order.
func ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	want := n - 1 // the caller's goroutine is always one worker
	if w := Workers() - 1; want > w {
		want = w
	}
	extra := 0
	if want > 0 {
		extra = tryAcquire(want)
	}
	if extra == 0 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	b := batchPool.Get().(*batchState)
	b.fn = fn
	b.n = int64(n)
	b.next.Store(0)
	b.wg.Add(extra)
	for k := 0; k < extra; k++ {
		workCh <- b
	}
	b.run() // the caller's goroutine is a worker too
	b.wg.Wait()
	release(extra)
	b.fn = nil
	batchPool.Put(b)
}

// Map runs fn over 0..n-1 on the pool and returns the results in input
// order (slot i holds fn(i)), regardless of which worker computed what.
func Map[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(n, func(i int) { out[i] = fn(i) })
	return out
}
