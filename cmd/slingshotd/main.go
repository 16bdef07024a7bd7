// Command slingshotd runs a simulated Slingshot vRAN deployment and
// narrates the resilience events: bring-up, traffic, a PHY failure with
// in-switch detection and failover, and a planned zero-downtime migration.
//
// Usage:
//
//	slingshotd [-seconds 4] [-baseline] [-kill-at 1.5] [-migrate-at 3] [-trace out.json]
//	slingshotd -cells 20 -ues 400          # sharded metro fleet, narrated summary
//	slingshotd -serve :8080 -scenario fleet-chaos -ckpt-every 40
//	                                       # resident server: /metrics /events /checkpoint /restore
package main

import (
	"flag"
	"fmt"
	"os"

	"slingshot/internal/ckpt"
	"slingshot/internal/core"
	"slingshot/internal/orion"
	"slingshot/internal/shard"
	"slingshot/internal/sim"
	"slingshot/internal/trace"
	"slingshot/internal/traffic"
	"slingshot/internal/ue"
)

func main() {
	var (
		seconds   = flag.Float64("seconds", 4, "virtual seconds to simulate")
		baseline  = flag.Bool("baseline", false, "run the no-Slingshot hot-backup baseline")
		killAt    = flag.Float64("kill-at", 2.5, "kill the active PHY at this time (0 = never)")
		migrateAt = flag.Float64("migrate-at", 1.2, "planned migration at this time (0 = never; Slingshot only)")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		tracePath = flag.String("trace", "", "record cross-layer events and write a Chrome trace_event JSON here (open in chrome://tracing or Perfetto)")
		cells     = flag.Int("cells", 0, "run a sharded multi-cell fleet of this size instead of the single-cell narration")
		ues       = flag.Int("ues", 0, "total UEs across the fleet (with -cells; default 10 per cell)")
		profile   = flag.String("profile", "", "correlated-failure scenario for the fleet: independent, rack-loss, partition, upgrade-wave (with -cells; default fleet-chaos)")
		serve     = flag.String("serve", "", "run as a resident HTTP server on this address (e.g. :8080); exposes /status /metrics /events /checkpoint /restore")
		scenario  = flag.String("scenario", "fleet-chaos", "fleet scenario for -serve: "+fmt.Sprint(ckpt.ScenarioNames()))
		ckptEvery = flag.Int("ckpt-every", 40, "with -serve: checkpoint every N TTI barriers (0 = only on demand)")
		ckptDir   = flag.String("ckpt-dir", "", "with -serve: checkpoint directory (default a fresh temp dir)")
		rogueAt   = flag.Float64("rogue-at", 0, "with -serve: inject an out-of-order RLC delivery at this virtual second (0 = never) to force an invariant violation and exercise the auto-replay path")
		rogueCell = flag.Int("rogue-cell", 0, "with -serve: cell targeted by -rogue-at")
	)
	flag.Parse()

	if *serve != "" {
		c, u := *cells, *ues
		if c <= 0 {
			c = 8
		}
		if u <= 0 {
			u = c * 3
		}
		runServe(serveOpts{
			addr: *serve, scenario: *scenario, cells: c, ues: u, seed: *seed,
			ckptEvery: *ckptEvery, ckptDir: *ckptDir,
			rogueAt: sim.Time(*rogueAt * float64(sim.Second)), rogueCell: *rogueCell,
		})
		return
	}

	if *cells > 0 {
		runFleet(*cells, *ues, *seed, *profile)
		return
	}

	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	var rec *trace.Recorder
	if *tracePath != "" {
		rec = trace.NewRecorder(0)
		cfg.Trace = rec
	}
	var d *core.Deployment
	mode := "slingshot"
	if *baseline {
		d = core.NewBaseline(cfg)
		mode = "baseline (hot-backup vRAN, no Slingshot)"
	} else {
		d = core.NewSlingshot(cfg)
	}
	say := func(format string, args ...any) {
		fmt.Printf("[%10v] ", d.Engine.Now())
		fmt.Printf(format+"\n", args...)
	}
	say("deployment: %s; cell %d on PHY server %d (standby %d), L2 on %d",
		mode, cfg.Cell, cfg.PrimaryServer, cfg.SecondaryServer, cfg.L2Server)

	for id, u := range d.UEs {
		id := id
		u.OnStateChange = func(s ue.State) { say("UE %d (%s): %v", id, u.Cfg.Name, s) }
	}
	if !*baseline {
		d.L2Orion.OnMigration = func(ev orion.MigrationEvent) {
			kind := "planned migration"
			if ev.Failover {
				kind = "FAILOVER"
			}
			say("orion: %s of cell %d to server %d at slot %d", kind, ev.Cell, ev.ToServer, ev.AtSlot)
		}
	}
	for srv, p := range d.PHYs {
		srv, p := srv, p
		p.OnCrash = func(reason string) { say("PHY on server %d crashed: %s", srv, reason) }
	}

	// Light uplink traffic from every UE, counted at the server.
	received := map[uint16]int{}
	d.OnUplink(func(ueID uint16, pkt []byte) { received[ueID]++ })
	d.Start()
	for id := range d.UEs {
		id := id
		tx := &traffic.UDPSender{Engine: d.Engine, Flow: id, RateBps: 2e6, PktSize: 1000,
			Send: func(pkt []byte) bool {
				u := d.UEs[id]
				if !u.Connected() {
					return false
				}
				u.SendUplink(pkt)
				return true
			}}
		d.Engine.At(100*sim.Millisecond, "traffic", tx.Start)
	}

	if *killAt > 0 {
		d.Engine.At(sim.Time(*killAt*float64(sim.Second)), "kill", func() {
			say("injecting SIGKILL into active PHY (server %d)", d.ActivePHYServer())
			d.KillActivePHY()
		})
	}
	if *migrateAt > 0 && !*baseline {
		d.Engine.At(sim.Time(*migrateAt*float64(sim.Second)), "migrate", func() {
			say("operator requests planned migration")
			if _, err := d.PlannedMigration(); err != nil {
				say("migration error: %v", err)
			}
		})
	}
	// Progress line every second.
	d.Engine.Every(sim.Second, sim.Second, "progress", func() {
		total := 0
		for _, n := range received {
			total += n
		}
		say("active PHY: server %d; uplink packets delivered: %d; detections: %d",
			d.ActivePHYServer(), total, len(d.Switch.DetectionLog))
	})

	d.Run(sim.Time(*seconds * float64(sim.Second)))
	for _, p := range d.PHYs {
		p.OnCrash = nil // teardown kills are not crashes
	}
	d.Stop()

	say("done. switch stats: %d forwarded, %d migrations, %d failures detected",
		d.Switch.Stats.Forwarded, d.Switch.Stats.MigrationsExecuted, d.Switch.Stats.FailuresDetected)
	for id, u := range d.UEs {
		say("UE %d (%s): state=%v attaches=%d rlfs=%d delivered=%d pkts",
			id, u.Cfg.Name, u.State(), u.Stats.Attaches, u.Stats.RLFs, received[id])
	}

	if rec != nil {
		f, err := os.Create(*tracePath)
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
		say("trace: %d events captured (%d retained), chrome trace written to %s",
			rec.Total(), rec.Len(), *tracePath)
		fmt.Print(rec.Metrics().Exposition())
	}
}

// runFleet executes the sharded fleet-chaos scenario (or a correlated
// profile over a zoned topology) and narrates its outcome: fleet-wide
// totals, the controller's spare-pool decisions, and every cell that was
// killed, failed over, or handed load off.
func runFleet(cells, ues int, seed uint64, profile string) {
	if ues <= 0 {
		ues = cells * 10
	}
	cfg := shard.ChaosConfig(cells, ues)
	if profile != "" {
		c, err := shard.CorrelatedConfig(profile, cells, ues)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfg = c
		zones := cfg.Topo.Zones
		fmt.Printf("fleet: %d cells / %d UEs over %d zones (%d spares/zone + %d overflow), scenario %s\n",
			cfg.Cells, cfg.UEs, zones, cfg.Topo.ZoneSpares, cfg.Topo.OverflowSpares, profile)
	} else {
		fmt.Printf("fleet: %d cells / %d UEs, %d PHY kills against a %d-spare pool, %d-migration storm\n",
			cfg.Cells, cfg.UEs, cfg.Kills, cfg.Spares, cfg.Migrations)
	}
	cfg.Seed = seed
	rep, err := shard.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for _, fl := range rep.Faults {
		fmt.Printf("fault: %s\n", fl)
	}
	var ul, dl, exch uint64
	for _, cs := range rep.Cells {
		ul += cs.UL
		dl += cs.DL
		if cs.Killed {
			outcome := "DENIED a spare (pool exhausted), running unprotected"
			if cs.SpareOK {
				outcome = "granted a pooled spare and reprotected"
			}
			fmt.Printf("cell %d: active PHY killed, failed over (%d TTIs dropped), %s\n",
				cs.Cell, cs.Dropped, outcome)
		}
		if cs.HandoverRx > 0 {
			fmt.Printf("cell %d: absorbed %d handover transfers from unprotected neighbors\n",
				cs.Cell, cs.HandoverRx)
		}
		exch += cs.BackhaulRx + cs.HandoverRx
	}
	for _, z := range rep.Zones {
		fmt.Printf("zone %d: %d cells, %d killed, %d re-spared (%d local + %d cross grants), %d denied; availability %.4f%%\n",
			z.Zone, z.Cells, z.Killed, z.Respared, z.GrantsLocal, z.GrantsCross, z.Denied, z.Availability)
	}
	fmt.Printf("controller: %d spare grants (%d local, %d cross-zone), %d denials, %d migration commands, %d upgrade steps\n",
		rep.Grants, rep.GrantsLocal, rep.GrantsCross, rep.Denials, rep.MigrateCmds, rep.UpgradeCmds)
	fmt.Printf("delivered in order: %d uplink / %d downlink packets; %d inter-cell messages\n",
		ul, dl, exch)
	fmt.Printf("fingerprint: %016x\n", rep.Fingerprint)
	if rep.Err() != nil {
		fmt.Fprintln(os.Stderr, rep.Err())
		os.Exit(1)
	}
	fmt.Printf("all %d cells within the §8.2 failover budget; 0 invariant violations\n", len(rep.Cells))
}
