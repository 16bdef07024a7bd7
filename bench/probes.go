package main

import (
	"time"

	"slingshot/internal/dsp"
	"slingshot/internal/fapi"
	"slingshot/internal/fec"
	"slingshot/internal/fronthaul"
	"slingshot/internal/harq"
	"slingshot/internal/mem"
	"slingshot/internal/par"
	"slingshot/internal/phy"
	"slingshot/internal/rlc"
	"slingshot/internal/shard"
	"slingshot/internal/sim"
)

// Shapes the workloads actually use: the sampled code block, its pilots,
// the mantissa width of the fronthaul, a 24-PRB allocation.
const (
	probeK, probeN = phy.DefaultCodeK, phy.DefaultCodeN
	probeMantissa  = 9
	probeSamples   = 288 // 24 PRBs × 12 subcarriers
	probeSNRdB     = 16
)

// probe is a timed loop over one layer's public entry point. setup builds
// the inputs once and returns the loop; units is how many reported units
// one iteration covers (samples, blocks, messages).
type probe struct {
	name  string
	unit  string
	units float64
	setup func() func(iters int)
	// pool runs the probe with the two-worker pool: its subject is the
	// pool. Every other probe runs single-threaded, so a number is the
	// layer's cost and not the pool's.
	pool bool
}

// sink keeps results alive so the compiler cannot drop a probe's body.
var sink float64

// measure reports the probe's cost per unit: it sizes a batch to about
// batchFor, runs several, and keeps the fastest: interference only adds.
func (p probe) measure(batches int, batchFor time.Duration) float64 {
	loop := p.setup()
	loop(1) // warm pools and lazy tables
	iters := 1
	for {
		t0 := time.Now()
		loop(iters)
		if d := time.Since(t0); d >= batchFor/4 || iters >= 1<<24 {
			if d > 0 {
				iters = int(float64(iters)*float64(batchFor)/float64(d)) + 1
			}
			break
		}
		iters *= 4
	}
	best := time.Duration(1<<63 - 1)
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		loop(iters)
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return float64(best) / (float64(iters) * p.units)
}

func runProbes(smoke bool) []metric {
	batches, batchFor := 7, 10*time.Millisecond
	if smoke {
		batches, batchFor = 1, 200*time.Microsecond
	}
	defer par.SetWorkers(2)
	var out []metric
	for _, p := range probes {
		par.SetWorkers(1)
		if p.pool {
			par.SetWorkers(2)
		}
		out = append(out, metric{p.name, p.measure(batches, batchFor), p.unit, ""})
	}
	return append(out, metric{"fec.decode_iters_mean", decodeItersMean(), "count", "min-sum iterations at 16 dB"})
}

func randomBits(rng *sim.RNG, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Uint64() & 1)
	}
	return b
}

func randomIQ(rng *sim.RNG, n int) []complex128 {
	iq := make([]complex128, n)
	for i := range iq {
		iq[i] = complex(rng.Norm(), rng.Norm())
	}
	return iq
}

// noisySymbols is a modulated random block through a flat 16 dB channel.
func noisySymbols(m dsp.Modulation, n int, seed uint64) []complex128 {
	rng := sim.NewRNG(seed)
	ch := dsp.NewChannel(probeSNRdB, 0, 0, rng.Fork(1))
	return ch.Transmit(dsp.Modulate(randomBits(rng, n*m.BitsPerSymbol()), m))
}

// decodeJobs builds one lane group of distinct 16 dB code blocks.
func decodeJobs() ([]fec.DecodeJob, []fec.DecodeResult) {
	code := fec.Get(probeK, probeN, 42)
	jobs := make([]fec.DecodeJob, fec.SoALanes)
	for i := range jobs {
		rng := sim.NewRNG(uint64(100 + i))
		ch := dsp.NewChannel(probeSNRdB, 0, 0, rng.Fork(1))
		rx := ch.Transmit(dsp.Modulate(code.Encode(randomBits(rng, probeK)), dsp.QAM16))
		jobs[i] = fec.DecodeJob{Code: code, MaxIters: phy.DefaultFECIter,
			LLR:  dsp.Demodulate(rx, dsp.QAM16, ch.NoiseVar())[:probeN],
			Info: make([]byte, 0, probeK)}
	}
	return jobs, make([]fec.DecodeResult, len(jobs))
}

func decodeItersMean() float64 {
	jobs, results := decodeJobs()
	fec.DecodeBatchInto(results, jobs)
	total := 0
	for _, r := range results {
		total += r.Iterations
	}
	return float64(total) / float64(len(results))
}

// demodProbe times soft demodulation of one allocation's symbols.
func demodProbe(name string, m dsp.Modulation) probe {
	return probe{name: name, unit: "ns", units: probeSamples, setup: func() func(int) {
		syms := noisySymbols(m, probeSamples, 31)
		dst := make([]float64, 0, probeSamples*m.BitsPerSymbol())
		return func(iters int) {
			for i := 0; i < iters; i++ {
				dst = dsp.DemodulateInto(dst, syms, m, 0.025)
			}
			sink += dst[0]
		}
	}}
}

var probes = []probe{
	{name: "sim.engine.ns_per_event", unit: "ns", units: 64, setup: func() func(int) {
		e := sim.NewEngine()
		fired := 0
		fn := func() { fired++ }
		return func(iters int) {
			for i := 0; i < iters; i++ {
				// 8 slots of 8 tied events: the fronthaul's shape on the TTI grid.
				for j := 0; j < 64; j++ {
					e.AfterPooled(sim.Time(j%8)*phy.TTI, "probe", fn)
				}
				for e.Step() {
				}
			}
			sink += float64(fired)
		}
	}},
	{name: "sim.rng.norm_ns", unit: "ns", units: 1, setup: func() func(int) {
		rng := sim.NewRNG(9)
		return func(iters int) {
			acc := 0.0
			for i := 0; i < iters; i++ {
				acc += rng.Norm()
			}
			sink += acc
		}
	}},
	{name: "dsp.transmit_ns_per_sample", unit: "ns", units: probeSamples, setup: func() func(int) {
		rng := sim.NewRNG(10)
		ch := dsp.NewChannel(probeSNRdB, 1.3, 0.9, rng.Fork(1))
		syms := dsp.Modulate(randomBits(rng, probeSamples*4), dsp.QAM16)
		return func(iters int) {
			for i := 0; i < iters; i++ {
				sink += real(ch.Transmit(syms)[0])
			}
		}
	}},
	{name: "dsp.modulate_ns_per_sample", unit: "ns", units: probeSamples, setup: func() func(int) {
		bits := randomBits(sim.NewRNG(11), probeSamples*4)
		dst := make([]complex128, 0, probeSamples)
		return func(iters int) {
			for i := 0; i < iters; i++ {
				dst = dsp.AppendModulate(dst[:0], bits, dsp.QAM16)
			}
			sink += real(dst[0])
		}
	}},
	demodProbe("dsp.demod_qam16_ns_per_sample", dsp.QAM16),
	demodProbe("dsp.demod_qam64_ns_per_sample", dsp.QAM64),
	{name: "fec.encode_ns_per_block", unit: "ns", units: 1, setup: func() func(int) {
		code := fec.Get(probeK, probeN, 42)
		info := randomBits(sim.NewRNG(12), probeK)
		out := make([]byte, probeN)
		return func(iters int) {
			for i := 0; i < iters; i++ {
				code.EncodeInto(out, info)
			}
			sink += float64(out[probeN-1])
		}
	}},
	{name: "fec.decode_ns_per_block", unit: "ns", units: fec.SoALanes, setup: func() func(int) {
		jobs, results := decodeJobs()
		return func(iters int) {
			for i := 0; i < iters; i++ {
				fec.DecodeBatchInto(results, jobs)
			}
			sink += float64(results[0].Iterations)
		}
	}},
	{name: "fronthaul.bfp_compress_ns_per_prb", unit: "ns", units: probeSamples / 12, setup: func() func(int) {
		iq := randomIQ(sim.NewRNG(13), probeSamples)
		var enc []byte
		return func(iters int) {
			for i := 0; i < iters; i++ {
				enc, _ = fronthaul.AppendCompressBFP(enc[:0], iq, probeMantissa) // 288 samples at 9 bits always encodes
			}
			sink += float64(enc[0])
		}
	}},
	{name: "fronthaul.bfp_decompress_ns_per_prb", unit: "ns", units: probeSamples / 12, setup: func() func(int) {
		enc, _ := fronthaul.CompressBFP(randomIQ(sim.NewRNG(13), probeSamples), probeMantissa)
		var dec []complex128
		return func(iters int) {
			for i := 0; i < iters; i++ {
				dec, _ = fronthaul.AppendDecompressBFP(dec[:0], enc, probeMantissa) // enc came from CompressBFP
			}
			sink += real(dec[0])
		}
	}},
	{name: "fronthaul.packet_roundtrip_ns", unit: "ns", units: 1, setup: func() func(int) {
		iq := randomIQ(sim.NewRNG(14), probeSamples)
		var dec []complex128
		return func(iters int) {
			for i := 0; i < iters; i++ {
				// The RU→PHY path: build, serialize, parse, decompress, recycle.
				pkt, err := fronthaul.NewUplinkIQ(1, uint8(i), fronthaul.SlotFromCounter(uint64(i)), 0, probeSamples/12, iq, probeMantissa)
				if err != nil {
					panic(err) // fixed valid input: only a broken codec gets here
				}
				wire := pkt.SerializePooled()
				mem.PutBytes(pkt.Payload)
				pkt.Recycle()
				rx, err := fronthaul.Decode(wire)
				if err != nil {
					panic(err)
				}
				if dec, err = rx.AppendIQ(dec[:0]); err != nil {
					panic(err)
				}
				rx.Recycle()
				mem.PutBytes(wire)
			}
			sink += real(dec[0])
		}
	}},
	{name: "phy.encode_block_ns", unit: "ns", units: 1, setup: func() func(int) {
		codec := phy.NewCodec(probeK, probeN, probeMantissa, 0x517E)
		tb := make([]byte, 64)
		var dst []complex128
		return func(iters int) {
			for i := 0; i < iters; i++ {
				dst = codec.AppendEncodeBlock(dst[:0], tb, uint64(i), 1, dsp.QAM16)
			}
			sink += real(dst[0])
		}
	}},
	{name: "phy.prepare_block_ns", unit: "ns", units: 1, setup: func() func(int) {
		codec, rx, pool := preparedInput()
		return func(iters int) {
			for i := 0; i < iters; i++ {
				pb := codec.PrepareBlock(rx, 7, 1, dsp.QAM16, pool, 0, true)
				sink += pb.SNRdB
				pb.Release()
			}
		}
	}},
	{name: "phy.decode_prepared_ns", unit: "ns", units: 1, setup: func() func(int) {
		codec, rx, pool := preparedInput()
		pb := codec.PrepareBlock(rx, 7, 1, dsp.QAM16, pool, 0, true)
		return func(iters int) {
			for i := 0; i < iters; i++ {
				if out := codec.DecodePrepared(&pb, phy.DefaultFECIter); out.OK {
					sink++
				}
			}
		}
	}},
	{name: "fapi.codec_roundtrip_ns", unit: "ns", units: 1, setup: func() func(int) {
		// One busy slot's UL_CONFIG: a PDU per scheduled UE.
		msg := &fapi.ULConfig{CellID: 0, Slot: 7}
		for ue := 1; ue <= 32; ue++ {
			msg.PDUs = append(msg.PDUs, fapi.PDU{UEID: uint16(ue), HARQID: uint8(ue % 8), NewData: true,
				Alloc: dsp.Allocation{UEID: uint16(ue), StartPRB: ue * 3, NumPRB: 3, Mod: dsp.QAM16}, TBBytes: 256})
		}
		return func(iters int) {
			for i := 0; i < iters; i++ {
				wire := fapi.EncodePooled(msg)
				got, err := fapi.Decode(wire)
				if err != nil {
					panic(err) // a message this package just encoded
				}
				sink += float64(got.AbsSlot())
				fapi.ReleaseDeep(got)
				mem.PutBytes(wire)
			}
		}
	}},
	{name: "harq.combine_ns", unit: "ns", units: 1, setup: func() func(int) {
		pool := harq.NewPool()
		llr := make([]float64, probeN)
		for i := range llr {
			llr[i] = float64(i%7) - 3
		}
		pool.Combine(1, 0, llr, true)
		return func(iters int) {
			for i := 0; i < iters; i++ {
				sink += pool.Combine(1, 0, llr, false)[0] // a retransmission: chase-combine into the soft buffer
			}
		}
	}},
	{name: "rlc.pdu_roundtrip_ns", unit: "ns", units: 1, setup: func() func(int) {
		tx, rx := rlc.NewTx(), rlc.NewRx()
		pkt := make([]byte, stormPktSize)
		var pdu []byte
		return func(iters int) {
			for i := 0; i < iters; i++ {
				// One 1200 B packet segmented over two PDUs and reassembled.
				tx.Enqueue(pkt)
				for tx.Backlog() > 0 {
					pdu = tx.AppendPDU(pdu[:0], 700)
					out, err := rx.Ingest(pdu)
					if err != nil {
						panic(err) // a PDU this package just built
					}
					sink += float64(len(out))
				}
			}
		}
	}},
	{name: "shard.mailbox_ns_per_msg", unit: "ns", units: 256, setup: func() func(int) {
		frames := make([][]byte, 256)
		for i := range frames {
			m := shard.Message{At: sim.Time(i % 97), Src: uint16(i % 31), Dst: uint16((i + 1) % 31), Seq: uint64(i),
				Kind: shard.KindBackhaul, A: uint64(i), Payload: []byte{byte(i), 2, 3, 4, 5, 6, 7, 8}}
			frames[i] = shard.Encode(&m)
		}
		var mb shard.Mailbox
		return func(iters int) {
			for i := 0; i < iters; i++ {
				for _, f := range frames {
					m, err := shard.DecodePooled(f)
					if err != nil {
						panic(err) // a frame this package just encoded
					}
					mb.Post(m)
				}
				sink += float64(mb.DrainUpTo(1<<40, func(m shard.Message) { mem.PutBytes(m.Payload) }))
			}
		}
	}},
	{name: "par.foreach_ns", unit: "ns", units: 1, pool: true, setup: func() func(int) {
		var slots [2]int
		return func(iters int) {
			for i := 0; i < iters; i++ {
				par.ForEach(2, func(g int) { slots[g]++ }) // an empty barrier step over two shard groups
			}
			sink += float64(slots[0])
		}
	}},
	{name: "mem.getput_ns", unit: "ns", units: 1, setup: func() func(int) {
		return func(iters int) {
			for i := 0; i < iters; i++ {
				b := mem.GetBytes(1500)
				sink += float64(len(b))
				mem.PutBytes(b)
			}
		}
	}},
}

// preparedInput is one received 16QAM code block at 16 dB with the codec
// and HARQ pool the PHY would hand PrepareBlock.
func preparedInput() (*phy.Codec, []complex128, *harq.Pool) {
	codec := phy.NewCodec(probeK, probeN, probeMantissa, 0x517E)
	rng := sim.NewRNG(15)
	ch := dsp.NewChannel(probeSNRdB, 0, 0, rng.Fork(1))
	tb := make([]byte, 64)
	for i := range tb {
		tb[i] = byte(rng.Uint64())
	}
	return codec, ch.Transmit(codec.EncodeBlock(tb, 7, 1, dsp.QAM16)), harq.NewPool()
}
