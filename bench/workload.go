package main

import (
	"fmt"
	"math"
	"strings"

	"slingshot/internal/chaos"
	"slingshot/internal/core"
	"slingshot/internal/dsp"
	"slingshot/internal/l2"
	"slingshot/internal/phy"
	"slingshot/internal/shard"
	"slingshot/internal/sim"
	"slingshot/internal/trace"
	"slingshot/internal/traffic"
)

// spec is one workload: a name, the reason it exists, and how to build the
// system under test from nothing but a seed. Shapes use public Config fields
// only, so the benchmark measures what `cmd/experiments` users can run.
type spec struct {
	name string
	why  string
	// api names the product calls the driver wraps in spans, in the order
	// build, boot, step.
	api [3]string
	// horizon is the whole simulated run; settle is the fault-free warm-up
	// that counts as set-up. smoke runs shrink both.
	horizon, settle sim.Time
	short           bool // a smoke run: gates that need the full horizon stand down
	faults          bool // the fault plan must cost at least one TTI
	// fleet returns a fleet workload's base config; nil means cell-storm,
	// the one workload built straight on core.NewSlingshot.
	fleet func() (shard.Config, error)
}

// execution is the host-side shape of a replay. It never changes a report
// (that is the repo's determinism contract, and the harness checks it).
type execution struct {
	workers, shards int
	trace           bool // Config.Trace: per-cell recorders and merged counters
}

var (
	pinned = execution{workers: 2, shards: 2}
	serial = execution{workers: 1, shards: 1}
)

// sut is a built system under test, advanced one TTI barrier at a time.
type sut interface {
	cells() int
	start()
	step() (done bool, err error)
	now() sim.Time
	// finish tears the system down and reads its outcome, timing each
	// product call it makes into log like the driver does for the others.
	finish(log *spanLog) outcome
}

// outcome is everything simulated that a replay reports. Every field is a
// function of (workload, seed) alone, so replays must agree on all of it.
type outcome struct {
	Fingerprint uint64
	Offered     uint64 // application packets the senders' schedule offers
	Delivered   uint64 // of those, delivered in order
	Bytes       uint64 // delivered application bytes, UL+DL
	Dropped     uint64 // dropped TTIs, summed over cells
	Migrations  int    // planned migrations executed
	Exchanged   uint64 // inter-shard messages delivered
	Grants      int
	Denials     int
	Retries     int
	DecodeOK    uint64 // uplink block decodes (traced replays only on fleets)
	DecodeFail  uint64
	HarqViol    int    // harq-conservation breaches (reported, not gated, on cell-storm)
	Err         string // invariant violation or run error; empty when clean
}

const (
	fleetHorizon = 640 * sim.Millisecond
	stormSettle  = 200 * sim.Millisecond
	stormHorizon = stormSettle + 6*sim.Second
	stormMigGap  = 50 * sim.Millisecond // Table 2's 20 migrations per second
)

var workloads = []spec{
	{
		name: "cell-dense",
		why:  "one hot cell, 96 small TBs per slot each way: ue uplink synthesis, dsp, fec, phy and fronthaul BFP do the work, shard and failover none",
		api:  fleetAPI, horizon: fleetHorizon,
		fleet: func() (shard.Config, error) { return shard.DefaultConfig(1, 96), nil },
	},
	{
		name: "metro-wide",
		why:  "64 near-idle cells: sim engine clockwork, null-slot l2/fapi/orion traffic, ru and the shard barrier dominate; PHY decode is negligible",
		api:  fleetAPI, horizon: fleetHorizon,
		fleet: func() (shard.Config, error) { return shard.DefaultConfig(64, 128), nil },
	},
	{
		name: "fleet-faults",
		why:  "16 cells under a rack loss, a partition and a migration storm at half spares: switch detector, orion migrate, spare grant/deny/retry, chaos checker; availability below 100",
		api:  fleetAPI, horizon: fleetHorizon, faults: true,
		fleet: func() (shard.Config, error) {
			// No independent Kills on top of the rack loss: at half spares
			// they take out a cell's second PHY on three seeds in ten, and a
			// benchmark workload must pass its gates on every seed.
			cfg, err := shard.CorrelatedConfig("rack-loss", 16, 96)
			if err != nil {
				return cfg, err
			}
			shard.ApplySpareRatio(&cfg, 0.5)
			cfg.Migrations = 8
			cfg.Partitions = 1
			cfg.PartitionLen = 12 * sim.Millisecond
			return cfg, nil
		},
	},
	{
		name:    "cell-storm",
		why:     "paper testbed, 3 UEs with large HARQ-heavy downlink-heavy TBs and 20 planned migrations per second: same phy/l2/rlc/harq/fapi layers as cell-dense, few large TBs instead of many small",
		api:     [3]string{"core.NewSlingshot", "Deployment.Start", "Engine.RunUntil"},
		horizon: stormHorizon, settle: stormSettle,
	},
}

var fleetAPI = [3]string{"shard.New", "Fleet.Start", "Fleet.Step"}

func findWorkload(name string) (spec, error) {
	for _, sp := range workloads {
		if sp.name == name {
			return sp.resolved()
		}
	}
	var names []string
	for _, sp := range workloads {
		names = append(names, sp.name)
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// resolved fills a fleet spec's settle from its base config, so window()
// and the set-up loop use the warm-up the scenario itself declares.
func (sp spec) resolved() (spec, error) {
	if sp.fleet != nil {
		cfg, err := sp.fleet()
		if err != nil {
			return sp, err
		}
		sp.settle = cfg.Settle
	}
	return sp, nil
}

func (sp spec) build(seed uint64, ex execution) (sut, error) {
	if sp.fleet == nil {
		return buildStorm(sp, seed, ex), nil
	}
	cfg, err := sp.fleet()
	if err != nil {
		return nil, err
	}
	cfg.Seed = seed
	cfg.Horizon = sp.horizon
	cfg.Settle = sp.settle
	cfg.Shards = ex.shards
	cfg.Trace = ex.trace
	f, err := shard.New(cfg)
	if err != nil {
		return nil, err
	}
	return &fleetSUT{f: f}, nil
}

// smoke shrinks a workload to a 60 ms measured horizon for the harness's
// own tests: same code paths, too short for any timing to mean anything.
func (sp spec) smoke() spec {
	sp.settle = 10 * sim.Millisecond
	sp.horizon = sp.settle + 60*sim.Millisecond
	sp.short = true
	return sp
}

// window is the measured span of barriers: traffic flowing, tails not yet
// draining. The margins shrink with smoke horizons.
func (sp spec) window() (lo, hi sim.Time) {
	return sp.settle + min(20*sim.Millisecond, (sp.horizon-sp.settle)/8), sp.drainFrom()
}

// drainFrom is where the measured window ends and cell-storm's senders
// stop, so tails drain before the horizon.
func (sp spec) drainFrom() sim.Time {
	return sp.horizon - min(40*sim.Millisecond, (sp.horizon-sp.settle)/4)
}

// ---- fleet workloads ----

type fleetSUT struct {
	f *shard.Fleet
}

func (s *fleetSUT) cells() int          { return s.f.Config().Cells }
func (s *fleetSUT) start()              { s.f.Start() }
func (s *fleetSUT) step() (bool, error) { return s.f.Step() }
func (s *fleetSUT) now() sim.Time       { return s.f.Now() }

func (s *fleetSUT) finish(log *spanLog) outcome {
	// MergedMetrics reads the live per-cell recorders; take it before Finish
	// folds them into the report.
	var out outcome
	if reg := s.f.MergedMetrics(); reg != nil {
		snap := reg.Snapshot()
		out.DecodeOK = uint64(snap["phy.decode.ok"])
		out.DecodeFail = uint64(snap["phy.decode.fail"])
	}
	var rep *shard.Report
	log.timed("Fleet.Finish", func() { rep = s.f.Finish() })
	// Rendering the report is part of every CLI run; it rides in finish_ms.
	log.timed("Report.String", func() { _ = rep.String() })
	cfg := rep.Cfg
	out.Fingerprint = rep.Fingerprint
	out.Offered = fleetOffered(cfg)
	for _, c := range rep.Cells {
		out.Delivered += c.UL + c.DL
		out.Dropped += c.Dropped
		out.Retries += c.Retries
	}
	out.Bytes = out.Delivered * uint64(cfg.PacketBytes)
	out.Migrations = rep.MigrateCmds
	out.Exchanged = rep.Exchanged
	out.Grants = rep.Grants
	out.Denials = rep.Denials
	if err := rep.Err(); err != nil {
		out.Err = err.Error()
	}
	return out
}

// fleetOffered is the number of application packets a fleet config's
// traffic schedule offers: every UE sends one uplink and receives one
// downlink packet per TrafficPeriod, from Settle until the tick that
// would land inside the drain margin before the horizon (the arithmetic
// of shard's traffic ticker, restated so a silent change there shows).
func fleetOffered(cfg shard.Config) uint64 {
	if cfg.TrafficPeriod <= 0 {
		return 0
	}
	drain := min(cfg.Horizon/5, 30*sim.Millisecond)
	stopAt := cfg.Horizon - drain
	ticks := uint64(1)
	for t := cfg.Settle; t+cfg.TrafficPeriod < stopAt; t += cfg.TrafficPeriod {
		ticks++
	}
	perCell := uint64(cfg.UEs / cfg.Cells)
	return ticks * perCell * uint64(cfg.Cells) * 2
}

// ---- cell-storm ----

// stormFlow is one constant-rate UDP flow of the cell-storm workload.
type stormFlow struct {
	tx *traffic.UDPSender
	rx *traffic.UDPReceiver
}

type stormSUT struct {
	sp    spec
	d     *core.Deployment
	chk   *chaos.Checker
	flows []stormFlow
	at    sim.Time

	migrations, refused int
	stopMig             func()
}

// stormRates are the per-UE offered loads. Uplink is the issue's 6 Mb/s
// for all three. Downlink is 20 Mb/s for the two strong UEs; UE 1 sits at
// Table 2's 10.4 dB and carries about 16 Mb/s, so it is offered 10 Mb/s —
// the benchmark wants a workload on which no packet is lost to overload.
var stormDLRate = map[uint16]float64{1: 10e6, 2: 20e6, 3: 20e6}

const (
	stormULRate  = 6e6
	stormPktSize = 1200
)

func buildStorm(sp spec, seed uint64, ex execution) sut {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	// UE 1 is Table 2's stress UE: pinned 16QAM near its decode threshold,
	// so HARQ sequences are always in flight when a migration lands.
	cfg.UEs[0].MeanSNRdB = 10.4
	cfg.UEs[0].FadeStd = 1.3
	cfg.UEs[0].FadeCorr = 0.9
	cfg.L2Tweak = func(l *l2.Config) {
		l.FixedULMod = dsp.QAM16
		// Twice the default budget: a block whose soft buffer a migration
		// discarded still gets through. With 4, UE 1 loses two to four of
		// its 3725 uplink packets on a quarter of all seeds.
		l.MaxHARQTx = 8
	}
	if ex.trace {
		cfg.Trace = trace.NewRecorder(512)
	}
	d := core.NewSlingshot(cfg)
	s := &stormSUT{sp: sp, d: d, chk: chaos.Attach(d)}

	ulRx := map[uint16]*traffic.UDPReceiver{}
	for _, spec := range cfg.UEs {
		id := spec.ID
		u := d.UEs[id]
		ul := stormFlow{
			rx: &traffic.UDPReceiver{Engine: d.Engine, Flow: id},
			tx: &traffic.UDPSender{Engine: d.Engine, Flow: id, RateBps: stormULRate, PktSize: stormPktSize,
				Send: func(p []byte) bool {
					if !u.Connected() {
						return false
					}
					u.SendUplink(p)
					return true
				}},
		}
		ulRx[id] = ul.rx
		dl := stormFlow{
			rx: &traffic.UDPReceiver{Engine: d.Engine, Flow: 100 + id},
			tx: &traffic.UDPSender{Engine: d.Engine, Flow: 100 + id, RateBps: stormDLRate[id], PktSize: stormPktSize,
				Send: func(p []byte) bool { return d.SendDownlink(id, p) }},
		}
		u.OnDownlink = dl.rx.Handle
		s.flows = append(s.flows, ul, dl)
	}
	d.OnUplink(func(ue uint16, pkt []byte) {
		if rx := ulRx[ue]; rx != nil {
			rx.Handle(pkt)
		}
	})
	// The stop is scheduled before any sender starts, so at an equal
	// timestamp it fires first and stormOffered's ceiling is exact.
	d.Engine.At(sp.drainFrom(), "bench.stop", func() {
		for _, f := range s.flows {
			f.tx.Stop()
		}
	})
	d.Engine.At(sp.settle, "bench.start", func() {
		for _, f := range s.flows {
			f.tx.Start()
		}
	})
	s.stopMig = d.Engine.Every(sp.settle+stormMigGap/2, stormMigGap, "bench.migrate", func() {
		s.migrations++
		if _, err := d.PlannedMigration(); err != nil {
			s.refused++
		}
	})
	return s
}

func (s *stormSUT) cells() int    { return 1 }
func (s *stormSUT) start()        { s.d.Start() }
func (s *stormSUT) now() sim.Time { return s.at }

func (s *stormSUT) step() (bool, error) {
	s.at += phy.TTI
	if s.at > s.sp.horizon {
		s.at = s.sp.horizon
	}
	s.d.Engine.RunUntil(s.at)
	return s.at >= s.sp.horizon, nil
}

// stormMigrations is the number of planned migrations the schedule holds.
func stormMigrations(sp spec) int { return int((sp.horizon - sp.settle) / stormMigGap) }

// stormOffered is the packet count one sender's schedule offers between
// start and stop: one packet per interval, the first at start.
func stormOffered(rateBps float64, start, stop sim.Time) uint64 {
	interval := sim.Time(float64(stormPktSize*8) / rateBps * float64(sim.Second))
	return uint64(math.Ceil(float64(stop-start) / float64(interval)))
}

func (s *stormSUT) finish(log *spanLog) outcome {
	s.stopMig()
	log.timed("Deployment.Stop", s.d.Stop)
	s.chk.Finish()

	var out outcome
	h := fnvOffset
	var sent uint64
	for _, f := range s.flows {
		out.Offered += stormOffered(f.tx.RateBps, s.sp.settle, s.sp.drainFrom())
		sent += f.tx.Sent + f.tx.Rejected
		inOrder := f.rx.Received - f.rx.Reordered
		out.Delivered += inOrder
		out.Bytes += inOrder * stormPktSize
		h = fnvMix(h, uint64(f.tx.Flow), f.tx.Sent, f.tx.Rejected, f.rx.Received, f.rx.Reordered, f.rx.Bytes)
	}
	cell := s.d.Cfg.Cell
	out.Dropped = s.chk.DroppedTTIs(cell)
	out.Migrations = s.migrations
	var gated []string
	for _, v := range s.chk.Violations() {
		if v.Invariant == "harq-conservation" {
			out.HarqViol++
			continue
		}
		gated = append(gated, v.String())
	}
	for _, server := range []uint8{s.d.Cfg.PrimaryServer, s.d.Cfg.SecondaryServer} {
		st := s.d.PHYs[server].Stats
		out.DecodeOK += st.DecodeOK
		out.DecodeFail += st.DecodeFail
		h = fnvMix(h, st.SlotsProcessed, st.EncodedTBs, st.DecodeOK, st.DecodeFail, st.FronthaulRx, st.FronthaulTx)
	}
	// NextSeq counts every event the run ever scheduled: the cheapest
	// whole-run determinism witness the engine offers.
	out.Fingerprint = fnvMix(h, out.Dropped, uint64(s.migrations), uint64(s.chk.Total), s.d.Engine.NextSeq())

	switch {
	case len(gated) > 0:
		out.Err = fmt.Sprintf("cell-storm violated %d invariant(s): %s", len(gated), gated[0])
	case s.refused > 0 || s.migrations != stormMigrations(s.sp):
		out.Err = fmt.Sprintf("cell-storm executed %d migrations (%d refused), schedule holds %d",
			s.migrations, s.refused, stormMigrations(s.sp))
	case sent != out.Offered:
		out.Err = fmt.Sprintf("cell-storm senders offered %d packets, schedule arithmetic says %d", sent, out.Offered)
	}
	return out
}

const (
	fnvOffset = uint64(0xcbf29ce484222325)
	fnvPrime  = uint64(0x100000001b3)
)

func fnvMix(h uint64, vs ...uint64) uint64 {
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			h ^= uint64(byte(v >> (8 * i)))
			h *= fnvPrime
		}
	}
	return h
}
