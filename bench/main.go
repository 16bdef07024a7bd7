// Command bench is the repository's benchmark: four seeded workloads, eight
// end-to-end metrics each, and a separate traced run that attributes host
// time to layers. README.md in this directory is the manual.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

const (
	defaultReps = 15 // replay cap per workload; the time budget usually binds first
	minReps     = 5
	// Set-up-only children per replay: 5 replays, the floor, give 15 extra
	// set-ups on top of the replays' own.
	setupsPerRound = 3
)

type options struct {
	seed      uint64
	seconds   int
	reps      int
	trace     int // 0 timed only, 1 traced only, -1 both
	smoke     bool
	jsonOnly  bool
	outDir    string
	workloads []spec
}

func main() {
	var (
		workload  = flag.String("workload", "", "run this one workload (the driver's spelling)")
		list      = flag.String("workloads", "", "comma-separated workloads to run (default: all four)")
		seed      = flag.Uint64("seed", 1, "workload seed, the only workload input (7 is the held-out seed)")
		seconds   = flag.Int("seconds", 20, "measuring budget per workload for the timed replays")
		reps      = flag.Int("reps", 0, "timed replays per workload (0: as many as -seconds allows, 5 to 15)")
		trace     = flag.Int("trace", -1, "0: timed replays and end-to-end metrics only; 1: traced run and per-layer metrics only; default both")
		jsonOnly  = flag.Bool("json", false, "print only the JSON result lines")
		selfcheck = flag.Bool("selfcheck", false, "run two timed sets back to back and fail if any end-to-end metric differs by more than its bound")
		smoke     = flag.Bool("smoke", false, "60 ms horizons and 2 replays: exercises the harness, measures nothing")
		outDir    = flag.String("out", "bench/out", "directory for trace.json, cpu.pprof and steps.csv")
		child     = flag.Bool("child", false, "internal: run one replay and print it as JSON")
		setupOnly = flag.Bool("setup-only", false, "internal: child stops at the Settle barrier")
	)
	flag.Parse()
	if err := run(*workload, *list, *child, *setupOnly, *selfcheck, options{
		seed: *seed, seconds: *seconds, reps: *reps, trace: *trace,
		smoke: *smoke, jsonOnly: *jsonOnly, outDir: *outDir,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workload, list string, child, setupOnly, selfcheck bool, o options) error {
	if err := checkHost(); err != nil {
		return err
	}
	// The shipped default on the 2-vCPU reference box, whatever nproc says.
	runtime.GOMAXPROCS(2)

	var names []string
	switch {
	case workload != "":
		names = []string{workload}
	case list != "":
		names = strings.Split(list, ",")
	}
	var err error
	if o.workloads, err = selectWorkloads(names, o.smoke); err != nil {
		return err
	}
	if o.smoke && o.reps == 0 {
		o.reps = 2
	}

	switch {
	case child:
		return childMain(o.workloads[0], o.seed, pinned, setupOnly)
	case selfcheck:
		return runSelfcheck(o)
	}
	ok := true
	for _, r := range runBenchmark(o) {
		printed, err := r.print(o)
		if err != nil {
			return err
		}
		ok = ok && printed
	}
	if !ok {
		return errors.New("a correctness gate failed (see the lines above)")
	}
	return nil
}

// selectWorkloads resolves names (all four when empty) to runnable specs.
func selectWorkloads(names []string, smoke bool) ([]spec, error) {
	if len(names) == 0 {
		for _, sp := range workloads {
			names = append(names, sp.name)
		}
	}
	var out []spec
	for _, n := range names {
		sp, err := findWorkload(strings.TrimSpace(n))
		if err != nil {
			return nil, err
		}
		if smoke {
			sp = sp.smoke()
		}
		out = append(out, sp)
	}
	return out, nil
}

// checkHost refuses hosts and environments on which the numbers would not
// be the shipped default's.
func checkHost() error {
	if runtime.NumCPU() < 2 {
		return errors.New("need at least 2 CPUs: the benchmark pins GOMAXPROCS=2, workers=2, shards=2")
	}
	for _, kv := range os.Environ() {
		k, _, _ := strings.Cut(kv, "=")
		if strings.HasPrefix(k, "SLINGSHOT_") || k == "GOGC" || k == "GOMEMLIMIT" {
			return fmt.Errorf("unset %s: the benchmark measures the default pooling, LLR lane and GC settings", k)
		}
	}
	return nil
}

// result is one workload's share of a run.
type result struct {
	sp          spec
	fingerprint uint64 // of the timed replays; 0 when none ran
	metrics     []metric
	attempted   uint64
	failed      uint64
	problems    []string // correctness gate failures
	wall        time.Duration
}

func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// runBenchmark runs the timed sets, then the traced run, as -trace asks,
// and returns one result per workload.
func runBenchmark(o options) []*result {
	start := time.Now()
	results := make([]*result, len(o.workloads))
	for i, sp := range o.workloads {
		results[i] = &result{sp: sp}
	}
	var sets []*timedSet
	if o.trace != 1 {
		sets = runTimed(o)
		for i, ts := range sets {
			ts.fold(results[i])
		}
		say(o, "timed sets: %.1fs", time.Since(start).Seconds())
	}
	if o.trace != 0 {
		t0 := time.Now()
		for i, sp := range o.workloads {
			runTraced(sp, o, results[i])
		}
		say(o, "traced run: %.1fs", time.Since(t0).Seconds())
	}
	say(o, "total: %.1fs", time.Since(start).Seconds())
	return results
}

func say(o options, format string, args ...any) {
	if !o.jsonOnly {
		fmt.Printf("# "+format+"\n", args...)
	}
}

// print writes one line per metric and then the contract's JSON object,
// and reports whether the workload passed its correctness gates.
func (r *result) print(o options) (correct bool, err error) {
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", r.sp.name, p)
	}
	if !o.jsonOnly {
		fmt.Printf("# %s: %.1fs wall\n", r.sp.name, r.wall.Seconds())
		for _, m := range r.metrics {
			line := fmt.Sprintf("%s %s %v %s", r.sp.name, m.name, m.value, m.unit)
			if m.note != "" {
				line += "  # " + m.note
			}
			fmt.Println(line)
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, map[string]value{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return false, fmt.Errorf("%s: a metric is not a number: %w", r.sp.name, err)
	}
	fmt.Println(string(line))
	return out.Correct, nil
}

// ---- timed replays ----

// timedSet is one workload's pinned child replays.
type timedSet struct {
	sp       spec
	reps     []*replay
	setups   []*replay
	childErr []error
	wall     time.Duration
}

// runTimed runs the timed replays of every selected workload, each replay a
// fresh child, interleaved round-robin so a noisy spell on the host costs
// every workload one replay instead of one workload most of its replays.
func runTimed(o options) []*timedSet {
	sets := make([]*timedSet, len(o.workloads))
	for i, sp := range o.workloads {
		sets[i] = &timedSet{sp: sp}
	}
	spawn := func(ts *timedSet, setupOnly bool) {
		t0 := time.Now()
		r, err := spawnReplay(ts.sp, o.seed, setupOnly)
		ts.wall += time.Since(t0)
		switch {
		case err != nil:
			ts.childErr = append(ts.childErr, err)
		case setupOnly:
			ts.setups = append(ts.setups, r)
		default:
			ts.reps = append(ts.reps, r)
		}
	}

	start := time.Now()
	budget := time.Duration(o.seconds*len(sets)) * time.Second
	maxReps, floor := o.reps, o.reps
	if o.reps == 0 {
		maxReps, floor = defaultReps, minReps
	}
	var round time.Duration
	for r := 0; r < maxReps; r++ {
		// Stop when another round would overrun the budget, but never below
		// the floor: the lower quartile of two or three replays is their
		// minimum, with nothing to absorb a speed factor read high.
		if r >= floor && time.Since(start)+round > budget {
			break
		}
		t0 := time.Now()
		for _, ts := range sets {
			spawn(ts, false)
			// Set-up-only children ride behind a full replay, which leaves
			// the host's clocks up; after an idle spell the same set-up
			// reads twice as long.
			for i := 0; i < setupsPerRound && (i == 0 || !ts.sp.short); i++ {
				spawn(ts, true)
			}
		}
		round = time.Since(t0)
	}
	return sets
}

// fold gates a timed set and turns it into end-to-end metrics.
func (ts *timedSet) fold(res *result) {
	res.wall += ts.wall
	for _, err := range ts.childErr {
		res.fail("%v", err)
	}
	if len(ts.reps) == 0 {
		res.fail("no replay completed")
		res.attempted, res.failed = 1, 1
		return
	}
	first := ts.reps[0]
	res.fingerprint = first.Fingerprint
	bad := len(ts.childErr)
	for i, r := range ts.reps {
		res.attempted += r.Offered
		switch {
		case r.Err != "":
			res.fail("replay %d: %s", i, r.Err)
		case r.Fingerprint != first.Fingerprint:
			res.fail("replay %d fingerprint %016x, replay 0 %016x: the run is not deterministic", i, r.Fingerprint, first.Fingerprint)
		case r.Delivered > r.Offered:
			res.fail("replay %d delivered %d packets of %d offered", i, r.Delivered, r.Offered)
		default:
			res.failed += r.Offered - r.Delivered
			continue
		}
		res.failed += r.Offered
	}
	// A child that died reported nothing; charge it a replay's operations.
	res.attempted += uint64(bad) * first.Offered
	res.failed += uint64(bad) * first.Offered

	res.metrics = append(res.metrics, endToEnd(ts.reps, ts.setups)...)
	gateSimulated(res, ts.sp, first.outcome)
}

// gateSimulated checks what a workload's simulated outcome must satisfy.
func gateSimulated(res *result, sp spec, out outcome) {
	for _, m := range res.metrics {
		if m.name == "availability_pct" && (m.value < 0 || m.value > 100) {
			res.fail("availability %v%% outside [0, 100]", m.value)
		}
	}
	if sp.faults && out.Dropped == 0 && !sp.short {
		res.fail("no TTI dropped: the faults did not bite, availability reads 100")
	}
}
