package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"slingshot/internal/ckpt"
	"slingshot/internal/par"
	"slingshot/internal/shard"
)

const (
	tracedReps    = 3    // replays per shape in the traced run
	maxTracedReps = 8    // traced replays may go on until the samples suffice
	tracedSetups  = 8    // set-up-only children for the cold phase split
	profileHz     = 1000 // CPU samples per second while tracing
	minCPUSamples = 2000
)

// runTraced is the per-layer half of the benchmark, run after (and never
// feeding) the end-to-end numbers: in-process replays of one workload in
// three shapes — pinned 2×2, serial 1×1, and serial with Config.Trace and
// the CPU profiler on — every call into a product layer wrapped in a
// span, then the checkpoint probe and the layer probes. Spans stay in
// memory until the end.
func runTraced(sp spec, o options, res *result) {
	start := time.Now()
	defer func() { res.wall += time.Since(start) }()
	log := newSpanLog()
	reps := tracedReps
	if sp.short {
		reps = 1
	}

	inProcess := func(label string, ex execution) *replay {
		runtime.GC() // each replay starts from a collected heap
		log.open(label)
		r, err := runReplay(sp, o.seed, ex, false, log)
		log.close()
		if err != nil {
			res.fail("%s: %v", label, err)
			return nil
		}
		res.attempted += r.Offered
		if r.Err != "" || r.Delivered > r.Offered {
			res.fail("%s: %s (delivered %d of %d)", label, r.Err, r.Delivered, r.Offered)
			res.failed += r.Offered
			return nil
		}
		res.failed += r.Offered - r.Delivered
		return r
	}

	// The three shapes take turns, so none of them owns the warm end of
	// the process. Each traced replay is profiled on its own; the kernel's
	// CPU-timer tick caps the sampling rate (250 Hz on the reference box),
	// so traced replays go on past the third until the samples suffice.
	tracedEx := serial
	tracedEx.trace = true
	var par2, ser, traced []*replay
	var profiles [][]byte
	counts := map[string]int64{}
	var samples int64
	for i := 0; i < maxTracedReps; i++ {
		if i >= reps && (sp.short || samples >= minCPUSamples) {
			break
		}
		if i < reps {
			if r := inProcess(fmt.Sprintf("pinned-2x2#%d", i), pinned); r != nil {
				par2 = append(par2, r)
			}
			if r := inProcess(fmt.Sprintf("serial-1x1#%d", i), serial); r != nil {
				ser = append(ser, r)
			}
		}
		// Raising the rate before StartCPUProfile makes the profiler keep
		// it: its own request for 100 Hz is refused with a one-line
		// warning on stderr.
		var prof bytes.Buffer
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			res.fail("cpu profile: %v", err)
		}
		r := inProcess(fmt.Sprintf("traced-1x1#%d", i), tracedEx)
		pprof.StopCPUProfile()
		if r == nil {
			continue
		}
		traced = append(traced, r)
		profiles = append(profiles, prof.Bytes())
		n, err := layerCounts(prof.Bytes(), counts)
		if err != nil {
			res.fail("cpu profile: %v", err)
		}
		samples += n
	}
	par.SetWorkers(2)

	if len(par2) == 0 || len(ser) == 0 || len(traced) == 0 {
		res.fail("traced run incomplete: %d pinned, %d serial, %d traced replays", len(par2), len(ser), len(traced))
		if res.attempted == 0 {
			res.attempted, res.failed = 1, 1
		}
		return
	}

	// Determinism gates. Config.Trace changes a fleet report, so traced
	// replays are compared only with each other.
	want := par2[0].Fingerprint
	if res.fingerprint != 0 {
		want = res.fingerprint // the timed children's, when they ran in this process
	}
	for _, r := range append(append([]*replay{}, par2...), ser...) {
		if r.Fingerprint != want {
			res.fail("fingerprint %016x differs from the pinned replays' %016x: execution shape changed the run", r.Fingerprint, want)
		}
	}
	for _, r := range traced[1:] {
		if r.Fingerprint != traced[0].Fingerprint {
			res.fail("traced fingerprints differ: %016x vs %016x", r.Fingerprint, traced[0].Fingerprint)
		}
	}

	// Cold set-up phases come from fresh children, like setup_s itself;
	// they run now, while the replays above have the host's clocks up.
	var cold []*replay
	for i := 0; i < tracedSetups && !sp.short; i++ {
		r, err := spawnReplay(sp, o.seed, true)
		if err != nil {
			res.fail("%v", err)
			continue
		}
		cold = append(cold, r)
	}
	ms := tracedMetrics(sp, cold, par2, ser, traced)

	if samples < minCPUSamples && !sp.short {
		res.fail("cpu profiles hold %d samples, want at least %d", samples, minCPUSamples)
	}
	total := 0.0
	for _, l := range layers {
		share := pct(float64(counts[l]), float64(samples))
		total += share
		ms = append(ms, metric{"layer." + l + ".self_pct", share, "%", ""})
	}
	if samples > 0 && (total < 99 || total > 101) {
		res.fail("layer shares sum to %.2f%%, want 100 ± 1", total)
	}
	say(o, "%s: %d CPU samples over %d traced replays", sp.name, samples, len(traced))

	ms = append(ms, ckptProbe(sp, o.seed, log, res)...)
	ms = append(ms, runProbes(sp.short)...)
	res.metrics = append(res.metrics, ms...)
	if traced[0].HarqViol > 0 {
		fmt.Fprintf(os.Stderr, "bench: %s: note: chaos checker counted %d harq-conservation breaches (reported, not gated; see README)\n",
			sp.name, traced[0].HarqViol)
	}

	if err := writeArtifacts(o.outDir, sp, log, profiles, par2, ser, traced); err != nil {
		res.fail("writing %s: %v", o.outDir, err)
	}
}

// windowLow is stepLow over a shape's replays, measured window only, with
// its sum. With three replays a shape it is the per-step minimum.
func windowLow(reps []*replay) ([]int64, float64) {
	var w [][]int64
	for _, r := range reps {
		w = append(w, r.window())
	}
	steps := stepLow(w)
	return steps, float64(sum(steps))
}

// tracedMetrics turns the in-process replays into the harness-level
// per-layer metrics: where set-up goes, what the barrier carries, what
// parallelism and tracing cost, what the collector does.
func tracedMetrics(sp spec, cold, par2, ser, traced []*replay) []metric {
	phase := func(reps []*replay, f func(*replay) int64) float64 {
		if len(reps) == 0 {
			return 0
		}
		var v []float64
		for _, r := range reps {
			v = append(v, float64(f(r)))
		}
		return slices.Min(v) / 1e6
	}
	if len(cold) == 0 {
		cold = ser // smoke runs spawn no children; warm numbers stand in
	}
	s0, t0 := ser[0], traced[0]
	steps := float64(s0.SettleSteps + len(s0.StepNs))
	cellTTIs := s0.cellTTIs()
	parSteps, parNs := windowLow(par2)
	_, serNs := windowLow(ser)
	// Like against like: a low quantile over more replays is lower for
	// that reason alone, so the overhead uses as many traced as serial.
	_, trNs := windowLow(traced[:min(len(traced), len(ser))])

	var gcCycles, gcSec, cpuSec float64
	for _, r := range ser {
		gcCycles += float64(r.GCCycles)
		gcSec += r.GCCPUSec
		cpuSec += r.CPUSec
	}
	decodes := float64(t0.DecodeOK + t0.DecodeFail)
	runTTIs := float64(t0.Cells) * steps
	return []metric{
		{"shard.build_ms", phase(cold, func(r *replay) int64 { return r.BuildNs }), "ms", sp.api[0]},
		{"shard.boot_ms", phase(cold, func(r *replay) int64 { return r.BootNs }), "ms", sp.api[1]},
		{"shard.settle_ms", phase(cold, func(r *replay) int64 { return r.SettleNs }), "ms", ""},
		{"shard.finish_ms", phase(ser, func(r *replay) int64 { return r.FinishNs }), "ms", ""},
		{"shard.msgs_per_step", float64(s0.Exchanged) / steps, "count", ""},
		{"shard.spare_grant_pct", pct(float64(s0.Grants), float64(s0.Grants+s0.Denials)), "%", fmt.Sprintf("%d grants, %d denials", s0.Grants, s0.Denials)},
		{"shard.spare_retries", float64(s0.Retries), "count", ""},
		{"step_us_p50", float64(percentile(sortedCopy(parSteps), 50)) / 1e3, "us", "pinned 2x2, in process"},
		{"run.serial_ns_per_cell_tti", serNs / cellTTIs, "ns", ""},
		{"par.speedup", serNs / parNs, "x", "serial / pinned 2x2 host ns"},
		{"trace.overhead_pct", 100 * (trNs - serNs) / serNs, "%", "Config.Trace + spans + 1 kHz profiler vs serial"},
		{"runtime.gc_cycles_per_kcell_tti", 1000 * gcCycles / (cellTTIs * float64(len(ser))), "count", ""},
		{"runtime.gc_cpu_pct", pct(gcSec, cpuSec), "%", ""},
		{"phy.decodes_per_cell_tti", decodes / runTTIs, "count", ""},
		{"phy.decode_fail_pct", pct(float64(t0.DecodeFail), decodes), "%", fmt.Sprintf("%d of %.0f uplink block decodes", t0.DecodeFail, decodes)},
	}
}

// pct is part/whole in percent, 0 when there is no whole (a workload the
// ratio does not apply to).
func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

// ckptProbe times checkpoint capture, encode and verified restore at the
// mid-run barrier of a fleet workload. cell-storm is not a fleet and has
// no checkpoint; its four metrics read 0.
func ckptProbe(sp spec, seed uint64, log *spanLog, res *result) []metric {
	var captureMs, encodeMs, restoreMs, size float64
	if sp.fleet != nil {
		log.open("ckpt-probe")
		defer log.close()
		par.SetWorkers(1)
		s, err := sp.build(seed, serial)
		if err != nil {
			res.fail("ckpt probe: %v", err)
			return nil
		}
		f := s.(*fleetSUT).f
		log.timed("Fleet.Start", f.Start)
		for f.Now() < sp.horizon/2 {
			if _, err := f.Step(); err != nil {
				res.fail("ckpt probe: %v", err)
				return nil
			}
		}
		var snap *ckpt.Snapshot
		var enc []byte
		var capNs, encNs []float64
		for i := 0; i < 5; i++ {
			capNs = append(capNs, float64(log.timed("ckpt.Capture", func() { snap = ckpt.Capture(f) })))
			encNs = append(encNs, float64(log.timed("Snapshot.Encode", func() { enc = snap.Encode() })))
		}
		var restored *shard.Fleet
		restoreNs := log.timed("ckpt.Restore", func() { restored, err = ckpt.Restore(snap) })
		if err != nil || restored.Now() != f.Now() {
			res.fail("ckpt probe: restore at %v: %v", f.Now(), err)
		}
		captureMs, encodeMs = slices.Min(capNs)/1e6, slices.Min(encNs)/1e6
		restoreMs, size = float64(restoreNs)/1e6, float64(len(enc))
		par.SetWorkers(2)
	}
	return []metric{
		{"ckpt.capture_ms", captureMs, "ms", ""},
		{"ckpt.encode_ms", encodeMs, "ms", ""},
		{"ckpt.bytes", size, "B", ""},
		{"ckpt.restore_ms", restoreMs, "ms", "replays from time zero and byte-verifies"},
	}
}

// writeArtifacts leaves the traced run's evidence in the output directory:
// the spans as a Chrome trace, the raw CPU profile for `go tool pprof`,
// and the per-step times of each shape.
func writeArtifacts(dir string, sp spec, log *spanLog, profiles [][]byte, par2, ser, traced []*replay) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`  // microseconds
		Dur  float64        `json:"dur"` // microseconds
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(log.spans))
	for i, s := range log.spans {
		cat, _, _ := strings.Cut(s.name, ".")
		events[i] = event{
			Name: s.name, Cat: cat, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: 1,
			Args: map[string]any{"id": i, "parent": s.parent, "workload": sp.name},
		}
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, sp.name+".trace.json"), buf, 0o644); err != nil {
		return err
	}
	for i, prof := range profiles {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s.cpu.%d.pprof", sp.name, i)), prof, 0o644); err != nil {
			return err
		}
	}

	parMin, _ := windowLow(par2)
	serMin, _ := windowLow(ser)
	trMin, _ := windowLow(traced[:min(len(traced), len(ser))])
	var csv bytes.Buffer
	csv.WriteString("step,pinned_min_ns,serial_min_ns,traced_min_ns\n")
	for k := range parMin {
		fmt.Fprintf(&csv, "%d,%d,%d,%d\n", par2[0].Lo+k, parMin[k], serMin[k], trMin[k])
	}
	return os.WriteFile(filepath.Join(dir, sp.name+".steps.csv"), csv.Bytes(), 0o644)
}
