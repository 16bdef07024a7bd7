// Command experiments regenerates the tables and figures of the paper's
// evaluation (§8). Each experiment builds its own deployment, runs it on
// virtual time, and prints the rows/series the paper reports. It can also
// run a single traced chaos schedule and export its cross-layer event
// trace for chrome://tracing.
//
// Usage:
//
//	experiments -list
//	experiments -run fig8
//	experiments -run all -scale 0.5
//	experiments -chaos light -seed 5 -trace chaos.json
//	experiments -cells 100 -ues 10000
//	experiments -cells 12 -ues 144 -fleet-chaos -shards 4
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"slingshot/internal/chaos"
	"slingshot/internal/experiments"
	"slingshot/internal/shard"
	"slingshot/internal/sim"
)

func main() {
	var (
		run       = flag.String("run", "", "experiment id to run, or 'all'")
		scale     = flag.Float64("scale", 1.0, "duration scale in (0,1]; 1 = paper-scale")
		list      = flag.Bool("list", false, "list experiment ids")
		chaosProf = flag.String("chaos", "", "run one traced chaos schedule with this profile (light, default, heavy) instead of an experiment")
		seed      = flag.Uint64("seed", 1, "schedule seed (with -chaos or -cells)")
		tracePath = flag.String("trace", "", "write the chaos run's Chrome trace_event JSON here (with -chaos)")

		cells      = flag.Int("cells", 0, "run the sharded metro scenario with this many cells instead of an experiment")
		ues        = flag.Int("ues", 0, "total UEs across the metro fleet (with -cells)")
		shards     = flag.Int("shards", 0, "shard-group count (0 = GOMAXPROCS); reports are identical at any value")
		fleetChaos = flag.Bool("fleet-chaos", false, "use the fleet-chaos scenario: PHY kills + pooled spares + migration storm (with -cells)")
		fleetProf  = flag.String("fleet-profile", "", "correlated-failure scenario over a zoned topology: independent, rack-loss, partition, upgrade-wave (with -cells)")
		horizon    = flag.Duration("horizon", 0, "override the metro virtual run length (with -cells)")
	)
	flag.Parse()

	if *cells > 0 {
		if err := validateMetroFlags(*cells, *ues, *shards, *horizon, flagWasSet("ues"), flagWasSet("horizon")); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		runMetro(*cells, *ues, *shards, *seed, *fleetChaos, *fleetProf, *horizon)
		return
	}
	for _, name := range []string{"ues", "shards", "fleet-chaos", "fleet-profile"} {
		if flagWasSet(name) {
			fmt.Fprintf(os.Stderr, "-%s requires -cells (the sharded metro scenario)\n", name)
			os.Exit(2)
		}
	}
	if *chaosProf != "" {
		runTracedChaos(*chaosProf, *seed, *tracePath)
		return
	}
	if *tracePath != "" {
		fmt.Fprintln(os.Stderr, "-trace requires -chaos (experiments build many deployments; only chaos runs are traced)")
		os.Exit(2)
	}

	if *list || *run == "" {
		fmt.Println("available experiments:")
		for _, id := range experiments.List() {
			fmt.Printf("  %-8s %s\n", id, experiments.Title(id))
		}
		if *run == "" && !*list {
			fmt.Println("\nuse -run <id>, -run all, or -chaos <profile>")
		}
		return
	}
	if *run == "all" {
		for _, r := range experiments.RunAll(*scale) {
			fmt.Println(r)
		}
		return
	}
	r, err := experiments.Run(*run, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(r)
}

// flagWasSet reports whether the user passed a flag explicitly.
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// validateMetroFlags rejects impossible metro flag combinations up front
// with a clear error, instead of a panic or a silent clamp deep in fleet
// setup. uesSet/horizonSet distinguish "omitted" (defaulted later) from
// "explicitly nonsensical".
func validateMetroFlags(cells, ues, shards int, horizon time.Duration, uesSet, horizonSet bool) error {
	if uesSet && ues <= 0 {
		return fmt.Errorf("-ues must be positive (got %d); omit it to default to 100 per cell", ues)
	}
	if uesSet && ues < cells {
		return fmt.Errorf("-ues %d spread over -cells %d leaves empty cells; need at least one UE per cell", ues, cells)
	}
	if horizonSet && horizon <= 0 {
		return fmt.Errorf("-horizon must be positive (got %v)", horizon)
	}
	if shards < 0 {
		return fmt.Errorf("-shards must be ≥ 0 (got %d); 0 means GOMAXPROCS", shards)
	}
	if shards > cells {
		return fmt.Errorf("-shards %d exceeds -cells %d: a shard group needs at least one cell", shards, cells)
	}
	return nil
}

// runMetro executes one sharded metro-scale fleet run and prints its
// deterministic report. Exit status 1 when any cell violated an
// invariant.
func runMetro(cells, ues, shards int, seed uint64, fleetChaos bool, fleetProf string, horizon time.Duration) {
	if ues <= 0 {
		ues = cells * 100
	}
	cfg := shard.DefaultConfig(cells, ues)
	if fleetChaos {
		cfg = shard.ChaosConfig(cells, ues)
	}
	if fleetProf != "" {
		c, err := shard.CorrelatedConfig(fleetProf, cells, ues)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfg = c
	}
	cfg.Seed = seed
	cfg.Shards = shards
	if horizon != 0 {
		cfg.Horizon = sim.FromDuration(horizon)
	}
	rep, err := shard.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Print(rep.String())
	fmt.Printf("lockstep: %d barrier steps of %v\n",
		int64(cfg.Horizon/cfg.Step), cfg.Step.Duration())
	if rep.Err() != nil {
		fmt.Fprintln(os.Stderr, rep.Err())
		os.Exit(1)
	}
}

// runTracedChaos executes one seeded chaos schedule with event tracing on,
// prints the invariant report (which embeds the flight-recorder dump when
// an invariant broke) and the live counters, and optionally exports the
// event ring as Chrome trace_event JSON.
func runTracedChaos(profile string, seed uint64, tracePath string) {
	p, ok := chaos.ByName(profile)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown chaos profile %q (have light, default, heavy)\n", profile)
		os.Exit(2)
	}
	rep, rec := chaos.RunTraced(seed, p)
	fmt.Print(rep.String())
	fmt.Printf("trace: %d events captured (%d retained)\n", rec.Total(), rec.Len())
	fmt.Print(rec.Metrics().Exposition())
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			os.Exit(1)
		}
		if err := rec.WriteChrome(f); err == nil {
			err = f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			os.Exit(1)
		}
		fmt.Printf("chrome trace written to %s\n", tracePath)
	}
	if rep.Err() != nil {
		os.Exit(1)
	}
}
