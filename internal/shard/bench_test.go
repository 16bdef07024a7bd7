package shard

import (
	"testing"

	"slingshot/internal/chaos"
	"slingshot/internal/mem"
	"slingshot/internal/sim"
)

// BenchmarkMetroScale is the fleet-scale microbenchmark (first recorded
// at commit c95e5a0): a 12-cell / 240-UE metro with ring backhaul
// advancing in lockstep for 100 ms of virtual time — per-op cost is the
// whole fleet run including bring-up, exchange barriers and teardown.
func BenchmarkMetroScale(b *testing.B) {
	cfg := DefaultConfig(12, 240)
	cfg.Horizon = 100 * sim.Millisecond
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Err() != nil {
			b.Fatal(rep.Err())
		}
	}
}

// BenchmarkZoneFailover is the correlated-failure cost number: a fully
// provisioned 8-cell rack-loss run over a zoned topology — one rack of
// cells killed in the same window, zone-local spare grants, §8.2 bound
// checked per cell. Per-op cost is the whole fleet run.
func BenchmarkZoneFailover(b *testing.B) {
	cfg, err := CorrelatedConfig("rack-loss", 8, 48)
	if err != nil {
		b.Fatal(err)
	}
	ApplySpareRatio(&cfg, 1)
	cfg.Seed = 11
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Err() != nil {
			b.Fatal(rep.Err())
		}
	}
}

// BenchmarkFrontierSweep prices one availability-vs-spare-ratio grid:
// 2 scenarios × 2 ratios × 1 seed of 4-cell fleets swept through
// chaos.Frontier on the worker pool. This is what `-run frontier` costs
// per grid cell group, so sweep-shape regressions show up here.
func BenchmarkFrontierSweep(b *testing.B) {
	spec := chaos.FrontierSpec{
		Scenarios: []string{"rack-loss", "upgrade-wave"},
		Ratios:    []float64{0, 0.5},
		Seeds:     1,
	}
	horizon := 280 * sim.Millisecond
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := chaos.Frontier(spec, func(sc string, ratio float64, seed uint64) (chaos.FrontierSample, error) {
			return FrontierSample(sc, 4, 16, 1, horizon, ratio, seed)
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Err() != nil {
			b.Fatal(rep.Err())
		}
	}
}

// BenchmarkMailboxExchange isolates the inter-shard plumbing: decode,
// post, drain and release 1k messages (8-byte payloads) in canonical
// order through the pooled wire path the fleet barrier uses. The mailbox
// is reused across iterations exactly as the fleet reuses its own, so
// the per-op number is the steady-state barrier cost — asserted
// alloc-free below (the concrete heap plus pooled payload copies replace
// ~2k boxing/copy allocs per exchange).
func BenchmarkMailboxExchange(b *testing.B) {
	frames := make([][]byte, 1000)
	for i := range frames {
		m := Message{
			At:      sim.Time(i % 97),
			Src:     uint16(i % 31),
			Seq:     uint64(i),
			Dst:     uint16((i + 1) % 31),
			Kind:    KindBackhaul,
			A:       uint64(i),
			Payload: []byte{byte(i), byte(i >> 8), 3, 4, 5, 6, 7, 8},
		}
		frames[i] = Encode(&m)
	}
	exchange := func(mb *Mailbox) {
		for _, f := range frames {
			m, err := DecodePooled(f)
			if err != nil {
				b.Fatal(err)
			}
			mb.Post(m)
		}
		n := mb.DrainUpTo(1<<40, func(m Message) { mem.PutBytes(m.Payload) })
		if n != len(frames) {
			b.Fatalf("drained %d of %d", n, len(frames))
		}
	}
	var mb Mailbox
	exchange(&mb) // warm the heap's backing array and the payload pool
	if !mem.DetectorArmed() {
		if avg := testing.AllocsPerRun(10, func() { exchange(&mb) }); avg > 0 {
			b.Fatalf("steady-state exchange allocates %.1f times per 1k messages, want 0", avg)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exchange(&mb)
	}
}
