package slingshot

// The determinism matrix. Every number this repo reproduces depends on a
// run being a pure function of its seed: execution knobs change wall-clock
// time and allocator traffic, never a report byte or a checkpoint image.
// One table holds the workloads (rows); each row lists the cells — points
// on the axes W (worker-pool width), S (shard groups), P (buffer pooling)
// and R (restore from a checkpoint, then run on) — that must reproduce its
// base run: W1 S1 pooling on, run straight through. DESIGN.md §8 carries
// the table's shape and what each axis defends.

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode"

	"slingshot/internal/chaos"
	"slingshot/internal/ckpt"
	"slingshot/internal/ckpt/wire"
	"slingshot/internal/mem"
	"slingshot/internal/par"
	"slingshot/internal/shard"
	"slingshot/internal/sim"
)

// cell is one point on the matrix's axes; the zero value is the base.
type cell struct {
	W, S int  // worker-pool width and shard groups; 0 means 1
	Poff bool // buffer pooling off (mem.SetEnabled(false))
	// R restores the snapshot taken at barrier restoreAt(cfg)[R-1] of the
	// straight run from (nil: the base) onto S groups, then runs on.
	R    int
	from *cell
	// Seed offsets the row's seed; such a cell must differ from the base.
	Seed int
}

var restoreNames = []string{"0", "mid", "end"}

// restoreAt lists the checkpoint barriers R restores from: before the
// first step, mid-run, and one step short of the horizon.
func restoreAt(cfg shard.Config) []sim.Time {
	return []sim.Time{0, cfg.Horizon / 2, cfg.Horizon - cfg.Step}
}

func (c cell) String() string {
	var axes []string
	if c.S > 1 {
		axes = append(axes, fmt.Sprintf("S%d", c.S))
	}
	if c.W > 1 {
		axes = append(axes, fmt.Sprintf("W%d", c.W))
	}
	if c.Poff {
		axes = append(axes, "P-off")
	}
	if c.R > 0 {
		axes = append(axes, "R@"+restoreNames[c.R-1])
	}
	if c.from != nil {
		axes = append(axes, "from("+c.from.String()+")")
	}
	if c.Seed != 0 {
		axes = append(axes, fmt.Sprintf("seed%+d", c.Seed))
	}
	if len(axes) == 0 {
		return "base"
	}
	return strings.Join(axes, ",")
}

// flips splits c into its single-axis cells, which name the axis at fault
// when a cell that flips several diverges.
func (c cell) flips() []cell {
	var out []cell
	if c.S > 1 {
		out = append(out, cell{S: c.S})
	}
	if c.W > 1 {
		out = append(out, cell{W: c.W})
	}
	if c.Poff {
		out = append(out, cell{Poff: true})
	}
	if c.R > 0 {
		out = append(out, cell{R: c.R, from: c.from})
	}
	return out
}

// setAxes applies c's worker width and pooling mode until t ends, and
// restores the previous values with t.Cleanup, so a cell that stops early
// (t.Fatal, t.SkipNow) cannot leak its knobs into later tests.
func setAxes(t testing.TB, c cell) {
	prevW := par.SetWorkers(max(c.W, 1))
	prevP := mem.SetEnabled(!c.Poff)
	t.Cleanup(func() {
		par.SetWorkers(prevW)
		mem.SetEnabled(prevP)
	})
}

// fingerprint is what every cell must reproduce: the report text and, for
// fleet rows, the checkpoint image at the H − Step barrier.
type fingerprint struct {
	text  string
	image []byte
	snaps []*ckpt.Snapshot // a straight fleet run's captures at restoreAt
}

// runFunc renders one cell's fingerprint; src is the straight run a
// restore cell restores from.
type runFunc func(c cell, src *fingerprint) (fingerprint, error)

// row is one workload: cells are the configs the full matrix runs against
// the base. api, when set, is a public entry point that must render the
// base's report too.
type row struct {
	name  string
	run   runFunc
	cells []cell
	api   func() (string, error)
}

// diagonal is the row's -short config: every axis any of its cells
// flips, flipped at once (R at mid-run).
func (r row) diagonal() cell {
	var d cell
	for _, c := range r.cells {
		if c.W > 1 {
			d.W = 4
		}
		if c.S > 1 {
			d.S = 4
		}
		d.Poff = d.Poff || c.Poff
		if c.R > 0 {
			d.R = 2
		}
	}
	return d
}

// report adapts a text-only entry point to a row's run.
func report(run func(c cell) (string, error)) runFunc {
	return func(c cell, _ *fingerprint) (fingerprint, error) {
		s, err := run(c)
		return fingerprint{text: s}, err
	}
}

// fleet runs cfg through shard.New and Step so a cell can checkpoint: a
// straight run captures every restoreAt barrier; a restore cell rebuilds
// from src's capture on c.S groups. Both fingerprint the H − Step image.
func fleet(cfg shard.Config) runFunc {
	return func(c cell, src *fingerprint) (fingerprint, error) {
		cfg := cfg
		cfg.Seed += uint64(c.Seed)
		cfg.Shards = max(c.S, 1)
		at := restoreAt(cfg)
		var fp fingerprint
		var f *shard.Fleet
		var err error
		if c.R > 0 {
			if len(src.snaps) < c.R || src.snaps[c.R-1] == nil {
				return fp, fmt.Errorf("the source run captured no snapshot at R@%s", restoreNames[c.R-1])
			}
			if f, err = ckpt.RestoreExec(src.snaps[c.R-1], cfg.Shards); err != nil {
				return fp, err
			}
		} else {
			if f, err = shard.New(cfg); err != nil {
				return fp, err
			}
			fp.snaps = make([]*ckpt.Snapshot, len(at))
		}
		f.Start()
		for done := false; !done; {
			for i, s := range fp.snaps {
				if s == nil && f.Now() >= at[i] {
					fp.snaps[i] = ckpt.Capture(f)
				}
			}
			if c.R > 0 && fp.image == nil && f.Now() >= at[len(at)-1] {
				fp.image = ckpt.Capture(f).State
			}
			if done, err = f.Step(); err != nil {
				return fp, err
			}
		}
		if c.R == 0 {
			fp.image = fp.snaps[len(at)-1].State
		}
		rep := f.Finish()
		fp.text = rep.String()
		return fp, rep.Err()
	}
}

// divergence describes how got departs from want in at most about 20
// lines — the first differing report line with two lines of context, and
// wire.Diff's section path between the images — or returns "" if equal.
func divergence(want, got fingerprint) string {
	var b strings.Builder
	if want.text != got.text {
		wl, gl := strings.Split(want.text, "\n"), strings.Split(got.text, "\n")
		i := 0
		for i < len(wl) && i < len(gl) && wl[i] == gl[i] {
			i++
		}
		fmt.Fprintf(&b, "report line %d:\n", i+1)
		for _, l := range wl[max(i-2, 0):i] {
			fmt.Fprintf(&b, "    %s\n", clip(l))
		}
		for _, side := range []struct {
			mark  string
			lines []string
		}{{"- base", wl}, {"+ got ", gl}} {
			for _, l := range side.lines[i:min(i+3, len(side.lines))] {
				fmt.Fprintf(&b, "  %s %s\n", side.mark, clip(l))
			}
		}
	}
	if !bytes.Equal(want.image, got.image) {
		fmt.Fprintf(&b, "image at H − Step differs at %s\n", clip(wire.Diff(want.image, got.image)))
	}
	return b.String()
}

// clip bounds one printed line: at most 120 bytes, quoted when it holds
// bytes a terminal would not print (a garbled section name, say).
func clip(s string) string {
	if len(s) > 120 {
		s = s[:117] + "..."
	}
	if strings.IndexFunc(s, func(r rune) bool { return !unicode.IsPrint(r) && r != '\t' }) >= 0 {
		return strconv.Quote(s)
	}
	return s
}

var (
	w4   = cell{W: 4}
	poff = cell{Poff: true}
)

// sw is the S × W product, shards {1, 4} × workers {1, 4}, minus the base.
func sw() []cell { return []cell{{W: 4}, {S: 4}, {S: 4, W: 4}} }

// rsw is every restore barrier at every S × W point.
func rsw() []cell {
	var out []cell
	for r := range restoreNames {
		for _, c := range append([]cell{{}}, sw()...) {
			c.R = r + 1
			out = append(out, c)
		}
	}
	return out
}

// matrixRows is the workload table; a row's cells are the axes it
// supports. DESIGN.md §8 renders the same table.
func matrixRows(t *testing.T) []row {
	experiment := func(id string, scale float64) runFunc {
		return report(func(cell) (string, error) { return RunExperiment(id, scale) })
	}
	config := func(cfg shard.Config, err error) shard.Config {
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	fleetChaos := config(ckpt.Scenario("fleet-chaos", 6, 18))
	fleetChaos.Horizon = 220 * sim.Millisecond
	fig8Fleet := config(ckpt.Scenario("fig8", 6, 18))
	frontierSample := config(ckpt.Scenario("frontier-sample", 6, 18))
	frontierSample.Horizon = 240 * sim.Millisecond
	// 96 UEs cross the RU's parallel-uplink floor, so one cell's UEs are
	// synthesised on different workers (the other fleets run that inline).
	denseCell := shard.DefaultConfig(1, 96)
	denseCell.Seed = 3
	denseCell.Horizon = 120 * sim.Millisecond
	metro := shard.DefaultConfig(6, 36)
	metro.Seed = 11
	metroTrace := shard.DefaultConfig(4, 16)
	metroTrace.Seed = 2
	metroTrace.Trace = true
	rackLoss := config(shard.CorrelatedConfig("rack-loss", 6, 36))
	rackLoss.Seed = 11
	upgradeWave := config(shard.CorrelatedConfig("upgrade-wave", 8, 48))
	upgradeWave.Seed = 7

	poffS2W4 := cell{S: 2, W: 4, Poff: true}
	return []row{
		{name: "fig8", run: experiment("fig8", 0.5), cells: []cell{w4, poff}},
		{name: "sec82", run: experiment("sec82", 0.5), cells: []cell{w4, poff}},
		{name: "chaos", run: report(func(c cell) (string, error) {
			return Chaos(5+uint64(c.Seed), "light")
		}), cells: []cell{w4, poff, {Seed: 1}}},
		// The serialized event trace: emission happens only on the
		// event-loop goroutine, so no knob may reorder or drop events.
		{name: "chaos-trace", run: report(func(cell) (string, error) {
			_, tr, err := ChaosTraced(5, "light")
			return tr, err
		}), cells: []cell{w4, poff}},
		{name: "chaos-seeds", run: report(func(cell) (string, error) {
			var b strings.Builder
			for seed := uint64(1); seed <= 5; seed++ {
				rep := chaos.Run(seed, chaos.Light())
				fmt.Fprintf(&b, "seed %d fingerprint %016x\n%s\n", seed, rep.Fingerprint, rep)
			}
			return b.String(), nil
		}), cells: []cell{poff}},
		// Any scale at or below 1/12 runs Table 2 at its 5 s floor per rate.
		{name: "table2", run: experiment("table2", 0.05), cells: []cell{{W: 4, Poff: true}}},
		{name: "facade", run: report(func(cell) (string, error) {
			d := New(DefaultOptions())
			d.Start()
			d.At(100*time.Millisecond, d.KillActivePHY)
			d.RunFor(300 * time.Millisecond)
			defer d.Stop()
			if len(d.Detections()) == 0 {
				return "", fmt.Errorf("no detection after killing the active PHY")
			}
			return fmt.Sprint(d.Detections()), nil
		}), cells: []cell{w4}},
		{name: "dense-cell", run: fleet(denseCell), cells: []cell{w4, poff, {R: 2}}},
		{name: "metro", run: fleet(metro), cells: append(sw(), cell{Seed: 1}),
			api: func() (string, error) { return Metro(MetroOptions{Cells: 6, UEs: 36, Seed: 11}) }},
		{name: "metro-trace", run: fleet(metroTrace), cells: sw()},
		{name: "rack-loss", run: fleet(rackLoss), cells: append(sw(), poff)},
		{name: "upgrade-wave", run: fleet(upgradeWave), cells: []cell{{S: 4}}},
		// Shard counts that do not divide the cells, pooling off with its
		// image, and snapshots crossing pooling modes in both directions.
		{name: "fleet-chaos", run: fleet(fleetChaos), cells: append(append(sw(),
			cell{S: 2, W: 4}, cell{S: 3, W: 4}, cell{S: 6, W: 4}), append(rsw(),
			poffS2W4, cell{S: 2, W: 4, Poff: true, R: 2}, cell{S: 2, W: 4, R: 2, from: &poffS2W4})...)},
		{name: "fig8-fleet", run: fleet(fig8Fleet), cells: append(sw(), rsw()...)},
		{name: "frontier-sample", run: fleet(frontierSample), cells: append(sw(), rsw()...)},
		// The sweep composes fleet runs through par.Map, so both knobs
		// reach it at once.
		{name: "frontier", run: report(func(c cell) (string, error) {
			return Frontier(FrontierOptions{
				Cells:     4,
				UEs:       16,
				Shards:    max(c.S, 1),
				Scenarios: []string{"rack-loss", "upgrade-wave"},
				Ratios:    []float64{0, 0.5},
				Horizon:   280 * time.Millisecond,
			})
		}), cells: sw()},
	}
}

// TestDeterminismMatrix runs every row's base, then every cell against it
// (under -short, only the row's diagonal). A cell that flips several axes
// and diverges names the single flips that diverge alone.
func TestDeterminismMatrix(t *testing.T) {
	for _, r := range matrixRows(t) {
		t.Run(r.name, func(t *testing.T) {
			var base fingerprint
			if !t.Run("base", func(t *testing.T) {
				setAxes(t, cell{})
				var err error
				if base, err = r.run(cell{}, nil); err != nil {
					t.Fatal(err)
				}
				if r.api == nil {
					return
				}
				s, err := r.api()
				if err != nil {
					t.Fatal(err)
				}
				if d := divergence(fingerprint{text: base.text}, fingerprint{text: s}); d != "" {
					t.Errorf("%s: the public entry point diverges from the base:\n%s", r.name, d)
				}
			}) {
				return
			}
			// ran records every cell this row has run, so a divergent
			// multi-axis cell names its axis from single flips already run
			// and re-runs only the rest.
			type outcome struct {
				fp  fingerprint
				bad bool
			}
			ran := map[string]*outcome{"base": {fp: base}}
			var check func(t *testing.T, c cell)
			check = func(t *testing.T, c cell) {
				setAxes(t, c)
				src := &base
				if c.from != nil {
					src = &ran[c.from.String()].fp
				}
				got, err := r.run(c, src)
				d := divergence(base, got)
				if err != nil {
					d = "run failed: " + clip(err.Error()) + "\n"
				} else if c.Seed != 0 {
					if d == "" {
						t.Errorf("%s %s: same fingerprint as the base; the seed does not reach the run", r.name, c)
					}
					d = ""
				}
				ran[c.String()] = &outcome{got, d != ""}
				if d == "" {
					return
				}
				msg := fmt.Sprintf("%s %s diverges from the base:\n%s", r.name, c, d)
				if flips := c.flips(); len(flips) > 1 {
					var alone []string
					for _, f := range flips {
						o, seen := ran[f.String()]
						bad := seen && o.bad
						if !seen {
							bad = !t.Run(f.String(), func(t *testing.T) { check(t, f) })
						}
						if bad {
							alone = append(alone, f.String())
						}
					}
					if len(alone) == 0 {
						msg += "no single flip diverges: the axes fail only together"
					} else {
						msg += "diverges alone: " + strings.Join(alone, " ")
					}
				}
				t.Error(strings.TrimSuffix(msg, "\n"))
			}
			cells := r.cells
			if testing.Short() {
				cells = []cell{r.diagonal()}
			}
			for _, c := range cells {
				t.Run(c.String(), func(t *testing.T) { check(t, c) })
			}
		})
	}
}

// TestSetAxesRestoresOnEarlyExit: a cell ended by t.SkipNow — which runs
// cleanups exactly as t.Fatal does — must hand later tests the worker
// width and pooling mode it found.
func TestSetAxesRestoresOnEarlyExit(t *testing.T) {
	workers, pooling := par.Workers(), mem.Enabled()
	t.Run("cell", func(t *testing.T) {
		setAxes(t, cell{W: 4, Poff: true})
		if par.Workers() != 4 || mem.Enabled() {
			t.Errorf("setAxes applied workers=%d pooling=%v, want 4 and off", par.Workers(), mem.Enabled())
		}
		t.SkipNow()
	})
	if par.Workers() != workers || mem.Enabled() != pooling {
		t.Fatalf("after the cell: workers=%d pooling=%v, want %d and %v",
			par.Workers(), mem.Enabled(), workers, pooling)
	}
}
