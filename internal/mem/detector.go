package mem

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Double-free / leak detector for the []byte pools (the pools every wire
// path leases from). Armed automatically in -race builds and, for the span
// of one test, by TrackLeases; off otherwise so the hot path only loads
// the tracking flag. It maps backing-array pointers to their state:
//
//   - true, pooled: the buffer rests in a pool. PutBytes on a pointer
//     already pooled is a double free → panic with its size.
//   - false, leased (TrackLeases only): the buffer is leased out.
//     LeakedLeases counts these so tests can assert a slot drained fully.
//     Not kept in plain -race builds — intentional lose-to-GC paths
//     (dropped frames) would grow the map without bound across a full
//     test run.
var (
	raceEnabled bool        // set by detector_race.go in -race builds
	tracking    atomic.Bool // set between TrackLeases and its stop

	detMu sync.Mutex
	det   map[*byte]bool
)

func detectorOn() bool { return raceEnabled || tracking.Load() }

// DetectorArmed reports whether the detector is active (-race build or
// inside TrackLeases). Allocation-count tests skip when it is: the
// detector's bookkeeping allocates, which is the ruin of
// testing.AllocsPerRun.
func DetectorArmed() bool { return detectorOn() }

// TrackLeases arms the detector, leak counting included, until the
// returned stop is called. It is test-scoped: arm it around the pipeline a
// test drains, compare LeakedLeases across the drain, and stop it before
// the test returns. Only buffers leased while it is armed are counted.
//
// While it is armed every release is poisoned, so a component that reads a
// buffer after handing it back sees garbage at once, not only when the pool
// happens to lease the buffer out again first: PutBytes fills the whole
// capacity with 0xA5, PutFloats and PutComplex with NaN, and Pool.Put
// keeps the value intact instead of resetting and recycling it.
func TrackLeases() (stop func()) {
	tracking.Store(true)
	return func() {
		tracking.Store(false)
		detMu.Lock()
		if raceEnabled {
			for p, pooled := range det {
				if !pooled {
					delete(det, p)
				}
			}
		} else {
			det = nil // no longer maintained, so it would go stale
		}
		detMu.Unlock()
	}
}

func detectorLease(b []byte) {
	if !detectorOn() || cap(b) == 0 {
		return
	}
	p := unsafe.SliceData(b[:cap(b)])
	detMu.Lock()
	if tracking.Load() {
		if det == nil {
			det = make(map[*byte]bool)
		}
		det[p] = false
	} else {
		delete(det, p)
	}
	detMu.Unlock()
}

func detectorPut(b []byte) {
	if !detectorOn() || cap(b) == 0 {
		return
	}
	p := unsafe.SliceData(b[:cap(b)])
	detMu.Lock()
	if det == nil {
		det = make(map[*byte]bool)
	}
	if det[p] {
		detMu.Unlock()
		panic(fmt.Sprintf("mem: double free of %d-byte buffer %p", cap(b), p))
	}
	det[p] = true
	detMu.Unlock()
}

// LeakedLeases reports the number of buffers leased since TrackLeases and
// not yet recycled, or -1 when TrackLeases is not armed.
func LeakedLeases() int {
	if !tracking.Load() {
		return -1
	}
	detMu.Lock()
	defer detMu.Unlock()
	n := 0
	for _, pooled := range det {
		if !pooled {
			n++
		}
	}
	return n
}

// poison fills b's whole capacity with v while TrackLeases is armed, by
// doubling copies (a memmove each) rather than one store per element.
func poison[T any](b []T, v T) {
	if !tracking.Load() || cap(b) == 0 {
		return
	}
	b = b[:cap(b)]
	b[0] = v
	for n := 1; n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}
