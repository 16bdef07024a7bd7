package experiments

import (
	"fmt"
	"strings"

	"slingshot/internal/core"
	"slingshot/internal/dsp"
	"slingshot/internal/fronthaul"
	"slingshot/internal/metrics"
	"slingshot/internal/netmodel"
	"slingshot/internal/phy"
	"slingshot/internal/sim"
	"slingshot/internal/switchsim"
	"slingshot/internal/traffic"
)

func init() {
	register("ablations", "Ablations of Slingshot's design choices (DESIGN.md §4)", runAblations)
}

// newBenchSwitch builds a minimal switch for the control-plane ablation.
func newBenchSwitch(e *sim.Engine) *switchsim.Switch {
	sw := switchsim.New(e, sim.NewRNG(5))
	sw.InstallRU(0, netmodel.RUAddr(0))
	sw.InstallPHY(0, netmodel.PHYAddr(0))
	sw.InstallPHY(1, netmodel.PHYAddr(1))
	sw.SetMapping(0, 0)
	return sw
}

// runAblations quantifies the design decisions DESIGN.md calls out:
//
//	A1  stateless migration  vs transferring PHY soft state
//	A2  null-FAPI standby    vs duplicate-work hot standby
//	A3  data-plane remap     vs control-plane rule update
//	A4  BFP mantissa width   9-bit vs 14-bit at marginal SNR
func runAblations(scale float64) Result {
	var b strings.Builder
	b.WriteString(ablateStateTransfer())
	b.WriteString("\n")
	b.WriteString(ablateDuplicateStandby(scale))
	b.WriteString("\n")
	b.WriteString(ablateControlPlane())
	b.WriteString("\n")
	b.WriteString(ablateBFPWidth())
	return Result{
		ID: "ablations", Title: Title("ablations"), Output: b.String(),
		Summary: "each Slingshot choice beats its alternative on the axis the paper optimizes",
	}
}

// ablateStateTransfer compares Slingshot's stateless migration against a
// hypothetical design that freezes the PHY and copies its soft state
// (HARQ LLR buffers + filters) before switchover.
func ablateStateTransfer() string {
	// Soft-state inventory for one loaded cell: active HARQ buffers hold
	// N coded-bit LLRs as float32 per in-flight process per UE; real
	// FlexRAN-scale cells also hold channel estimates per PRB.
	const (
		ues              = 16
		procsPerUE       = 8
		llrsPerProc      = 26112 // one real TB: 273 PRB * 96 LLR/PRB
		bytesPerLLR      = 4
		chanEstBytes     = 273 * 12 * 8 * ues
		linkBytesPerSec  = 100e9 / 8
		serializationHit = 2.0 // marshal+unmarshal on both ends
	)
	stateBytes := float64(ues*procsPerUE*llrsPerProc*bytesPerLLR + chanEstBytes)
	transfer := sim.Time(stateBytes * serializationHit / linkBytesPerSec * float64(sim.Second))
	// Consistency requires freezing the PHY for the copy: that blackout
	// alone spans multiple TTIs, and the state is stale on arrival (the
	// channel moved on).
	slotsLost := float64(transfer) / float64(phy.TTI)

	stateless := 3.0 // TTIs, measured in sec82
	return fmt.Sprintf(`A1: stateless migration vs state transfer
  soft state per loaded cell:   %.1f MB (HARQ LLR buffers + channel estimates)
  freeze-and-copy blackout:     %v (%.1f TTIs) + state is stale on arrival
  Slingshot (discard):          ~%.0f TTIs total disruption, no freeze
  -> discarding costs less than one HARQ round trip; copying costs more
     than the failure it protects against.
`, stateBytes/1e6, transfer, slotsLost, stateless)
}

// ablateDuplicateStandby runs the same loaded deployment twice: standby on
// null FAPIs (Slingshot) vs standby receiving duplicated real work.
func ablateDuplicateStandby(scale float64) string {
	duration := sim.Time(8*scale) * sim.Second
	if duration < 2*sim.Second {
		duration = 2 * sim.Second
	}
	// Downlink load: the duplicated DL_CONFIG/TX_DATA make the standby
	// encode every transport block the primary does. (Duplicating uplink
	// decode work would additionally need mirrored fronthaul, compounding
	// the cost in NIC bandwidth too.)
	run := func(duplicate bool) (primary, standby uint64) {
		cfg := core.DefaultConfig()
		cfg.UEs = []core.UESpec{{ID: 1, Name: "load", MeanSNRdB: 26, FadeStd: 1.0, FadeCorr: 0.97}}
		d := core.NewSlingshot(cfg)
		d.L2Orion.Cfg.DuplicateToStandby = duplicate
		app := newAppServer(d)
		rx := &traffic.UDPReceiver{Engine: d.Engine, Flow: 1}
		d.UEs[1].OnDownlink = rx.Handle
		tx := &traffic.UDPSender{Engine: d.Engine, Flow: 1, RateBps: 60e6, PktSize: 1200, Send: app.sendDownlink(1)}
		d.Start()
		d.Engine.At(100*sim.Millisecond, "start", tx.Start)
		d.Run(duration)
		tx.Stop()
		d.Stop()
		pp := d.PHYs[cfg.PrimaryServer].Stats
		ss := d.PHYs[cfg.SecondaryServer].Stats
		return pp.WorkUnits + pp.EncodedTBs, ss.WorkUnits + ss.EncodedTBs
	}
	p1, s1 := run(false)
	p2, s2 := run(true)
	return fmt.Sprintf(`A2: null-FAPI standby vs duplicate-work standby (%v of downlink load)
  null FAPIs (Slingshot):  primary %d work units, standby %d (%.0f%% overhead)
  duplicated work:         primary %d work units, standby %d (%.0f%% overhead)
  -> the naive hot standby doubles cluster PHY compute (and would double
     fronthaul NIC bandwidth for uplink) for zero extra protection; null
     slot requests keep it alive for free (§6.2).
`, duration, p1, s1, 100*float64(s1)/float64(p1+1),
		p2, s2, 100*float64(s2)/float64(p2+1))
}

// ablateControlPlane compares the in-dataplane migrate_on_slot remap with
// a conventional control-plane rule update.
func ablateControlPlane() string {
	e := sim.NewEngine()
	sw := newBenchSwitch(e)
	ctl := metrics.NewSample()
	for i := 0; i < 50; i++ {
		done := false
		sw.SetMappingViaControlPlane(0, 1, func(d sim.Time) {
			ctl.Add(d.Millis())
			done = true
		})
		e.Run()
		if !done {
			break
		}
	}
	// Data-plane remap executes on the first matching packet: one slot
	// boundary away at most, nanoseconds of pipeline work.
	return fmt.Sprintf(`A3: data-plane remap vs control-plane rule update
  control-plane update latency: median %.1f ms, p99 %.1f ms (paper: 29 ms p99.9)
  data-plane migrate_on_slot:   executes on the next matching packet at a
                                TTI boundary (<= 500 us away), ns-scale work
  -> a control-plane remap alone would eat the entire 10 ms downtime
     budget and cannot align to TTI boundaries (§5.1).
`, ctl.Median(), ctl.Percentile(99))
}

// ablateBFPWidth measures decode success at a marginal SNR under 9-bit
// and 14-bit fronthaul compression.
func ablateBFPWidth() string {
	success := func(width int, snr float64) float64 {
		codec := phy.NewCodec(0, 0, width, 0xB0F)
		rng := sim.NewRNG(77)
		ok := 0
		var iq []complex128
		const trials = 300
		for i := 0; i < trials; i++ {
			ch := dsp.NewChannel(snr, 0, 0, rng.Fork(uint64(i)))
			slot := uint64(100 + i)
			iq = phy.PadSymbols(codec.AppendEncodeBlock(iq[:0], []byte("x"), slot, 1, dsp.QAM64))
			enc, _ := fronthaul.CompressBFP(ch.TransmitInto(iq, iq), width)
			dec, _ := fronthaul.DecompressBFP(enc, width)
			if codec.DecodeBlock(dec, slot, 1, dsp.QAM64, nil, 0, true, 8).OK {
				ok++
			}
		}
		return float64(ok) / trials
	}
	const snr = 13.6
	s4 := success(4, snr)
	s9 := success(9, snr)
	s14 := success(14, snr)
	return fmt.Sprintf(`A4: fronthaul BFP width at marginal SNR (64QAM @ %.0f dB)
  4-bit mantissa:                 %.0f%% block success, 13 B/PRB (-54%% bandwidth)
  9-bit mantissa (O-RAN default): %.0f%% block success, 28 B/PRB
  14-bit mantissa:                %.0f%% block success, 43 B/PRB (+54%% bandwidth)
  -> 9-bit sits past the knee: its quantization noise is invisible next
     to the channel, while 4-bit quantization noise lands on the MCS
     cliff. The paper's 4.5 Gbps fronthaul assumes the 9-bit point.
`, snr, 100*s4, 100*s9, 100*s14)
}
