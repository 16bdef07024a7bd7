package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"slingshot/internal/par"
	"slingshot/internal/phy"
)

// replay is what one run of a workload measures: the outcome (simulated,
// identical across replays of one seed) and the host costs (never
// identical). A child process prints it as one JSON line.
type replay struct {
	outcome
	Cells int

	// Set-up phases, in order; their sum is the replay's set-up time.
	BuildNs, BootNs, SettleNs int64
	FinishNs                  int64
	SettleSteps               int

	// StepNs holds every barrier after Settle; StepNs[Lo:Hi] is the
	// measured window.
	StepNs []int64
	Lo, Hi int

	// RefNs is the median reference-kernel time (ref.go) between the steps
	// of the measured window.
	RefNs int64

	// Deltas over the measured window.
	Mallocs, AllocBytes uint64
	GCCycles            uint32
	GCCPUSec, CPUSec    float64

	RSSPeakKB int64 // VmHWM at exit (child replays only)
}

func (r *replay) setupNs() int64 { return r.BuildNs + r.BootNs + r.SettleNs }

// window is the measured window's step times at the reference box's speed.
func (r *replay) window() []int64 {
	f := speedFactor(r.RefNs)
	out := make([]int64, r.Hi-r.Lo)
	for k, ns := range r.StepNs[r.Lo:r.Hi] {
		out[k] = int64(float64(ns) / f)
	}
	return out
}

// cellTTIs is the number of cell·TTI units of work in the measured window.
func (r *replay) cellTTIs() float64 { return float64(r.Cells * (r.Hi - r.Lo)) }

// span is one timed call, Chrome trace_event "X" shaped: times are
// nanoseconds since the log's epoch, parent is the enclosing span's index
// (-1 for a replay's root).
type span struct {
	name       string
	start, end int64
	parent     int
}

// spanLog holds a process's spans in memory until the run ends.
type spanLog struct {
	epoch time.Time
	spans []span
	root  int // index of the open replay span, parent of what follows
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now(), root: -1} }

// open starts a root span for one replay; close ends it.
func (l *spanLog) open(name string) {
	l.spans = append(l.spans, span{name: name, start: int64(time.Since(l.epoch)), parent: -1})
	l.root = len(l.spans) - 1
}

func (l *spanLog) close() {
	l.spans[l.root].end = int64(time.Since(l.epoch))
	l.root = -1
}

// timed runs fn and returns how long it took; with a log it also records
// the span. Children pass a nil log: same clock reads, nothing kept.
func (l *spanLog) timed(name string, fn func()) int64 {
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	if l != nil {
		s := int64(t0.Sub(l.epoch))
		l.spans = append(l.spans, span{name: name, start: s, end: s + int64(d), parent: l.root})
	}
	return int64(d)
}

// gcCPU reads the runtime's cumulative GC and non-idle CPU seconds.
func gcCPU() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// runReplay builds a workload from its seed, runs it barrier by barrier
// and measures it. With setupOnly it stops at the Settle barrier.
func runReplay(sp spec, seed uint64, ex execution, setupOnly bool, log *spanLog) (*replay, error) {
	par.SetWorkers(ex.workers)
	r := &replay{}

	var s sut
	var err error
	r.BuildNs = log.timed(sp.api[0], func() { s, err = sp.build(seed, ex) })
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", sp.name, err)
	}
	r.Cells = s.cells()
	r.BootNs = log.timed(sp.api[1], s.start)
	t0 := time.Now()
	for s.now() < sp.settle {
		log.timed(sp.api[2], func() { _, err = s.step() })
		if err != nil {
			return nil, fmt.Errorf("%s: settle: %w", sp.name, err)
		}
		r.SettleSteps++
	}
	r.SettleNs = int64(time.Since(t0))
	if setupOnly {
		return r, nil
	}

	lo, hi := sp.window()
	// Sized up front so recording a step never allocates inside the window.
	r.StepNs = make([]int64, 0, int((sp.horizon-sp.settle)/phy.TTI)+1)
	refs := make([]int64, 0, cap(r.StepNs))
	lastRef := time.Now()
	r.Lo, r.Hi = -1, -1
	var m0, m1 runtime.MemStats
	var gc0, cpu0 float64
	for done := false; !done; {
		if r.Lo < 0 && s.now() >= lo {
			r.Lo = len(r.StepNs)
			gc0, cpu0 = gcCPU()
			runtime.ReadMemStats(&m0)
		}
		d := log.timed(sp.api[2], func() { done, err = s.step() })
		if err != nil {
			return nil, fmt.Errorf("%s: step at %v: %w", sp.name, s.now(), err)
		}
		r.StepNs = append(r.StepNs, d)
		if r.Lo >= 0 && r.Hi < 0 && time.Since(lastRef) >= refEvery {
			refs = append(refs, refSample())
			lastRef = time.Now()
		}
		if r.Lo >= 0 && r.Hi < 0 && s.now() >= hi {
			runtime.ReadMemStats(&m1)
			gc1, cpu1 := gcCPU()
			r.Hi = len(r.StepNs)
			r.Mallocs, r.AllocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
			r.GCCycles = m1.NumGC - m0.NumGC
			r.GCCPUSec, r.CPUSec = gc1-gc0, cpu1-cpu0
			r.RefNs = medianNs(refs)
		}
	}
	if r.Lo < 0 || r.Hi <= r.Lo {
		return nil, fmt.Errorf("%s: measured window [%v, %v] holds no barrier", sp.name, lo, hi)
	}
	t0 = time.Now()
	r.outcome = s.finish(log)
	r.FinishNs = int64(time.Since(t0))
	return r, nil
}

// ---- child processes ----

// childMain is `bench -child`: one replay in a fresh process, printed as
// one JSON line. It is what one CLI invocation of the simulator costs.
func childMain(sp spec, seed uint64, ex execution, setupOnly bool) error {
	r, err := runReplay(sp, seed, ex, setupOnly, nil)
	if err != nil {
		return err
	}
	r.RSSPeakKB = rssPeakKB()
	return json.NewEncoder(os.Stdout).Encode(r)
}

// rssPeakKB reads the process's peak resident set from /proc; 0 where
// there is no /proc to read.
func rssPeakKB() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb
		}
	}
	return 0
}

// spawnReplay re-executes this binary as a child (so `go run` works
// unbuilt) and waits for its replay. Children always run the pinned shape.
func spawnReplay(sp spec, seed uint64, setupOnly bool) (*replay, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", sp.name, "-seed", strconv.FormatUint(seed, 10)}
	if sp.short {
		args = append(args, "-smoke")
	}
	if setupOnly {
		args = append(args, "-setup-only")
	}
	cmd := exec.Command(exe, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %w: %s", sp.name, err, strings.TrimSpace(stderr.String()))
	}
	r := &replay{}
	if err := json.Unmarshal(stdout.Bytes(), r); err != nil {
		return nil, fmt.Errorf("%s child: unreadable result: %w", sp.name, err)
	}
	return r, nil
}
