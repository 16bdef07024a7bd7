package main

import (
	"bytes"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sort"
	"testing"
	"time"

	"slingshot/internal/shard"
	"slingshot/internal/sim"
)

// The harness re-executes its own binary for child replays; under `go test`
// that binary is the test binary, so it has to answer to -child too.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "-child" {
			main()
			return
		}
	}
	os.Exit(m.Run())
}

func TestStepLow(t *testing.T) {
	cases := []struct {
		name string
		reps [][]int64
		want []int64
	}{
		{"one replay is its own floor", [][]int64{{5, 7, 9}}, []int64{5, 7, 9}},
		{"with three replays the floor is the minimum, and noise lands on different steps in different replays",
			[][]int64{{10, 90, 10, 10}, {10, 10, 80, 10}, {70, 10, 10, 11}}, []int64{10, 10, 10, 10}},
		{"a replay that stopped early counts where it has data",
			[][]int64{{4, 4, 4, 4}, {3, 5}, {9, 2, 1}}, []int64{3, 2, 1, 4}},
		{"with eight replays one that reads low throughout (a speed factor measured high) does not set the floor, and bursts still do not count",
			[][]int64{{80, 80}, {100, 100}, {101, 500}, {102, 102}, {103, 103}, {400, 104}, {105, 105}, {106, 106}}, []int64{101, 102}},
		{"no replays, no steps", nil, []int64{}},
	}
	for _, c := range cases {
		if got := stepLow(c.reps); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: stepLow = %v, want %v", c.name, got, c.want)
		}
	}
}

// A replay that ran on a host half as fast as the reference box reads the
// same as one that ran at full speed: the window is scaled by the median
// reference sample, and one wild sample does not move the median.
func TestWindowIsScaledToReferenceSpeed(t *testing.T) {
	quiet := &replay{StepNs: []int64{7, 100, 200, 300, 9}, Lo: 1, Hi: 4, RefNs: medianNs([]int64{20000, 20000, 20000})}
	slow := &replay{StepNs: []int64{7, 200, 400, 600, 9}, Lo: 1, Hi: 4, RefNs: medianNs([]int64{40000, 950000, 40000, 39999, 40001})}
	unmeasured := &replay{StepNs: []int64{7, 100, 200, 300, 9}, Lo: 1, Hi: 4}
	want := []int64{100, 200, 300}
	for name, r := range map[string]*replay{"quiet": quiet, "slow": slow, "no samples": unmeasured} {
		if got := r.window(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: window = %v, want %v", name, got, want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	ten := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	hundred := make([]int64, 100)
	for i := range hundred {
		hundred[i] = int64(i + 1)
	}
	cases := []struct {
		sorted []int64
		p      float64
		want   int64
	}{
		{ten, 50, 5}, {ten, 90, 9}, {ten, 91, 10}, {ten, 100, 10}, {ten, 1, 1},
		{hundred, 99, 99}, {hundred, 50, 50}, {hundred, 99.5, 100},
		{[]int64{42}, 99, 42}, {nil, 50, 0},
	}
	for _, c := range cases {
		if got := percentile(c.sorted, c.p); got != c.want {
			t.Errorf("percentile(n=%d, p%g) = %d, want %d", len(c.sorted), c.p, got, c.want)
		}
	}
}

// The tail percentile must leave at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{11880, 99}, {1080, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {1, 50},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
}

func TestLayerOf(t *testing.T) {
	const p = "slingshot/internal/"
	cases := []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{p + "fec.(*Code).decodeSoA", p + "fec.DecodeBatchInto", p + "phy.(*PHY).drainUL"}, "fec"},
		{[]string{p + "sim.(*RNG).Norm", p + "dsp.(*Channel).Transmit"}, "sim.rng"},
		{[]string{p + "sim.(*Engine).RunUntil", p + "shard.(*Fleet).Step"}, "sim.engine"},
		{[]string{p + "sim.(*calendar).pop", p + "sim.(*Engine).Step"}, "sim.engine"},
		// A standard-library leaf is charged to the product frame that called it.
		{[]string{"math.archLog", "math.Log", p + "sim.(*RNG).Norm", p + "dsp.(*Channel).Transmit", p + "ue.(*UE).PullUplink"}, "sim.rng"},
		{[]string{"sync.(*Mutex).Lock", p + "mem.GetBytesCap", p + "fronthaul.NewUplinkIQ"}, "mem"},
		{[]string{"sort.insertionSort", "sort.Slice", "main.sortedCopy"}, "other"},
		// Package folding.
		{[]string{p + "harq.(*Pool).Combine", p + "phy.(*Codec).PrepareBlock"}, "l2"},
		{[]string{p + "rlc.(*Rx).Ingest"}, "l2"},
		{[]string{p + "netmodel.(*Link).Send"}, "switchsim"},
		{[]string{p + "par.(*batchState).run", p + "par.worker"}, "shard"},
		{[]string{p + "mem.(*Pool[go.shape.struct { slingshot/internal/fapi.CellID uint16 }]).Get", p + "fapi.GetULConfig"}, "mem"},
		{[]string{p + "core.(*Deployment).Start"}, "other"},
		{[]string{p + "trace.(*Recorder).Emit", p + "phy.(*PHY).receiveUL"}, "other"},
		// Runtime leaves: collector work wherever it runs, then the allocator.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.(*gcWork).tryGet", "runtime.gcDrainN", "runtime.gcAssistAlloc1", "runtime.gcAssistAlloc", "runtime.mallocgc", p + "dsp.(*Channel).Transmit"}, "runtime.gc"},
		{[]string{"runtime.(*mspan).sweep", "runtime.(*mcentral).cacheSpan", "runtime.mallocgc", p + "traffic.Marshal"}, "runtime.gc"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.makeslice", p + "dsp.(*Channel).Transmit"}, "runtime.malloc"},
		{[]string{"runtime.memmove", "runtime.growslice", p + "rlc.(*Tx).AppendPDU"}, "runtime.malloc"},
		{[]string{"runtime.memmove", p + "phy.(*Codec).PrepareBlock"}, "runtime.other"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.schedule"}, "runtime.other"},
		{[]string{"internal/runtime/atomic.(*Int64).Add", "runtime.(*timer).modify"}, "runtime.other"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	for _, l := range pkgLayer {
		if !known[l] {
			t.Errorf("pkgLayer maps to %q, which is not in the layer list", l)
		}
	}
}

// A real profile of this process must parse into non-empty stacks whose
// sample counts add up: the reader is hand-written against profile.proto.
func TestParseRealProfile(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(1)
	acc := 0.0
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		for i := 0; i < 10000; i++ {
			acc += rng.Norm()
		}
	}
	pprof.StopCPUProfile()
	sink += acc

	counts := map[string]int64{}
	n, err := layerCounts(prof.Bytes(), counts)
	if err != nil {
		t.Fatal(err)
	}
	if n < 10 {
		t.Fatalf("300 ms of spinning produced %d samples", n)
	}
	var sum int64
	for _, c := range counts {
		sum += c
	}
	if sum != n {
		t.Errorf("layer counts add to %d, profile holds %d", sum, n)
	}
	if counts["sim.rng"]*2 < n {
		t.Errorf("a loop over RNG.Norm put %d of %d samples in sim.rng: %v", counts["sim.rng"], n, counts)
	}
}

// fleetOffered restates shard's traffic schedule; a real 4-cell run, which
// loses nothing, must deliver exactly that many packets.
func TestFleetOfferedMatchesARealRun(t *testing.T) {
	for _, horizon := range []sim.Time{100 * sim.Millisecond, 150 * sim.Millisecond} {
		cfg := shard.DefaultConfig(4, 16)
		cfg.Horizon = horizon
		rep, err := shard.Run(cfg)
		if err != nil || rep.Err() != nil {
			t.Fatal(err, rep.Err())
		}
		var delivered uint64
		for _, c := range rep.Cells {
			delivered += c.UL + c.DL
		}
		if want := fleetOffered(rep.Cfg); delivered != want || want == 0 {
			t.Errorf("horizon %v: run delivered %d packets, schedule arithmetic offers %d", horizon, delivered, want)
		}
	}
}

func TestStormOffered(t *testing.T) {
	// 1200 B at 6 Mb/s is one packet per 1.6 ms: 5.96 s holds exactly 3725,
	// and the sender stopped at an instant that is a multiple sends nothing there.
	if got := stormOffered(6e6, 200*sim.Millisecond, 6160*sim.Millisecond); got != 3725 {
		t.Errorf("6 Mb/s over 5.96 s offers %d packets, want 3725", got)
	}
	if got := stormOffered(20e6, 200*sim.Millisecond, 6160*sim.Millisecond); got != 12417 {
		t.Errorf("20 Mb/s over 5.96 s offers %d packets, want 12417", got)
	}
}

// The whole harness end to end at smoke scale: every workload, timed
// children and traced run, gates green, and exactly the metric names
// BENCHMARK.json promises.
func TestSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	if runtime.NumCPU() < 2 {
		t.Skip("the harness refuses hosts with fewer than 2 CPUs")
	}
	c, err := readContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var wantNames, wantWorkloads []string
	for _, e := range c.EndToEnd {
		wantNames = append(wantNames, e.Name)
	}
	for _, e := range c.PerLayer {
		wantNames = append(wantNames, e.Name)
	}
	for _, w := range c.Workloads {
		wantWorkloads = append(wantWorkloads, w.Name)
	}
	sort.Strings(wantNames)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	specs, err := selectWorkloads(nil, true)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	results := runBenchmark(options{seed: 1, seconds: 1, reps: 2, trace: -1, smoke: true, jsonOnly: true,
		outDir: t.TempDir(), workloads: specs})
	t.Logf("smoke took %v", time.Since(start))

	var gotWorkloads []string
	for _, r := range results {
		gotWorkloads = append(gotWorkloads, r.sp.name)
		for _, p := range r.problems {
			t.Errorf("%s: %s", r.sp.name, p)
		}
		if r.attempted == 0 || r.failed != 0 {
			t.Errorf("%s: %d of %d operations failed", r.sp.name, r.failed, r.attempted)
		}
		var names []string
		for _, m := range r.metrics {
			names = append(names, m.name)
		}
		sort.Strings(names)
		if !reflect.DeepEqual(names, wantNames) {
			t.Errorf("%s prints metrics\n%v\nBENCHMARK.json lists\n%v", r.sp.name, names, wantNames)
		}
	}
	if !reflect.DeepEqual(gotWorkloads, wantWorkloads) {
		t.Errorf("harness runs %v, BENCHMARK.json lists %v", gotWorkloads, wantWorkloads)
	}
}
