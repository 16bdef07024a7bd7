package main

import (
	"math"
	"time"
)

// The reference kernel is how the harness tells the program's cost from
// the host's mood. On a shared 2-vCPU box every timing in a replay is
// multiplied by a speed factor that wanders by ±10 % on a scale of seconds
// — long enough to cover a whole replay, so the per-step minimum across
// replays cannot remove it. A fixed piece of arithmetic, timed between
// steps in the same thread, sees the same factor. Each replay's step times
// are divided by (median reference time / refNominalNs) before anything
// else is done with them, which turns host nanoseconds into nanoseconds at
// the reference box's quiet speed. The factor is itself a measurement, a
// few percent off now and then, which is why the steps are then folded
// with a lower quartile and not a minimum (stepLow). Over 40 to 60
// back-to-back replays grouped in runs of eight to ten, the standard
// deviation of the host-time estimate fell from 1.2–2.5 % (quiet host) and
// 1.8–5.7 % (noisy host) for the raw per-step minimum to 0.2–0.8 % and
// 0.8–1.4 %.
//
// The kernel is the harness's own — Box-Muller over a 32 KiB table, close
// to the simulator's hottest loop in instruction mix — and calls nothing
// in the product, so a change to the product cannot move it. The step
// that ran in between has evicted the table, so a sample is about 12 µs of
// arithmetic plus 8 µs of refilling L1 from L2: it feels both a slower
// clock and a busier cache, and reads the same 20 µs under all four
// workloads. setup_s is not normalised; it is plain wall-clock seconds.
const (
	refIters     = 600
	refNominalNs = 20000.0 // one kernel call on the quiet reference box
	refEvery     = time.Millisecond
)

var (
	refTable [4096]float64
	refSink  float64
)

func refKernel() {
	x := uint64(88172645463325252)
	acc := 0.0
	for i := 0; i < refIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		u := float64(x>>11)/(1<<53) + 1e-12
		j := (x >> 30) & 4095
		refTable[j] += math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*u)
		acc += refTable[(j+1031)&4095]
	}
	refSink += acc
}

// refSample times one kernel call.
func refSample() int64 {
	t0 := time.Now()
	refKernel()
	return int64(time.Since(t0))
}

// medianNs is the median of a set of reference samples: robust against the
// few that a collection or an interrupt landed on.
func medianNs(v []int64) int64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	return s[len(s)/2]
}

// speedFactor converts a median reference time into the factor by which
// the host ran slower than the reference box; 1 when there are no samples.
func speedFactor(refNs int64) float64 {
	if refNs <= 0 {
		return 1
	}
	return float64(refNs) / refNominalNs
}
