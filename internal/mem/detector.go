package mem

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Double-free / leak detector for the []byte pools (the pools every wire
// path leases from). Armed automatically in -race builds and, for the span
// of one test, by TrackLeases; off otherwise so the hot path stays two
// atomic loads. It tracks backing-array pointers:
//
//   - pooled: buffers currently resting in a pool. PutBytes on a pointer
//     already here is a double free → panic with both call sites' sizes.
//   - leased (TrackLeases only): buffers currently leased out. LeakedLeases
//     reports the count so tests can assert a slot drained fully. Not
//     maintained in plain -race builds — intentional lose-to-GC paths
//     (dropped frames) would grow it without bound across a full test run.
var (
	raceEnabled bool        // set by detector_race.go in -race builds
	tracking    atomic.Bool // set between TrackLeases and its stop

	detMu     sync.Mutex
	detPooled map[*byte]struct{}
	detLeased map[*byte]struct{}
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
func TrackLeases() (stop func()) {
	detMu.Lock()
	detLeased = make(map[*byte]struct{})
	detMu.Unlock()
	tracking.Store(true)
	return func() {
		tracking.Store(false)
		detMu.Lock()
		detLeased = nil
		if !raceEnabled {
			detPooled = nil // no longer maintained, so it would go stale
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
	if detPooled != nil {
		delete(detPooled, p)
	}
	if detLeased != nil {
		detLeased[p] = struct{}{}
	}
	detMu.Unlock()
}

func detectorPut(b []byte) {
	if !detectorOn() || cap(b) == 0 {
		return
	}
	p := unsafe.SliceData(b[:cap(b)])
	detMu.Lock()
	if detPooled == nil {
		detPooled = make(map[*byte]struct{})
	}
	if _, dup := detPooled[p]; dup {
		detMu.Unlock()
		panic(fmt.Sprintf("mem: double free of %d-byte buffer %p", cap(b), p))
	}
	detPooled[p] = struct{}{}
	if detLeased != nil {
		delete(detLeased, p)
	}
	detMu.Unlock()
}

// LeakedLeases reports the number of buffers leased since TrackLeases and
// not yet recycled, or -1 when TrackLeases is not armed.
func LeakedLeases() int {
	detMu.Lock()
	defer detMu.Unlock()
	if detLeased == nil {
		return -1
	}
	return len(detLeased)
}
