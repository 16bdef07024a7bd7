package dsp

import (
	"testing"

	"slingshot/internal/sim"
)

// benchSymbols returns deterministic noisy symbols for m: modulated random
// bits plus AWGN at roughly 10 dB, the regime the closed-form demodulator
// sees in the simulator.
func benchSymbols(m Modulation, n int) []complex128 {
	rng := sim.NewRNG(31)
	bits := make([]byte, n*m.BitsPerSymbol())
	for i := range bits {
		if rng.Bool(0.5) {
			bits[i] = 1
		}
	}
	syms := Modulate(bits, m)
	for i := range syms {
		syms[i] += complex(rng.Norm()*0.05, rng.Norm()*0.05)
	}
	return syms
}

// benchMods names the per-constellation sub-benchmarks tracked by
// scripts/bench.sh (Demodulate/QPSK ... Modulate/256QAM).
var benchMods = []Modulation{QPSK, QAM16, QAM64, QAM256}

func BenchmarkDemodulate(b *testing.B) {
	const nSym = 512
	for _, m := range benchMods {
		b.Run(m.String(), func(b *testing.B) {
			syms := benchSymbols(m, nSym)
			dst := make([]float64, nSym*m.BitsPerSymbol())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = DemodulateInto(dst, syms, m, 0.02)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nSym), "ns/sym")
		})
	}
}

func BenchmarkModulate(b *testing.B) {
	const nSym = 512
	for _, m := range benchMods {
		b.Run(m.String(), func(b *testing.B) {
			rng := sim.NewRNG(32)
			bits := make([]byte, nSym*m.BitsPerSymbol())
			for i := range bits {
				if rng.Bool(0.5) {
					bits[i] = 1
				}
			}
			dst := make([]complex128, 0, nSym)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = AppendModulate(dst[:0], bits, m)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nSym), "ns/sym")
		})
	}
}

// BenchmarkDemodulateReference tracks the retained full-scan oracle so the
// closed-form speedup stays visible in the bench history.
func BenchmarkDemodulateReference(b *testing.B) {
	const nSym = 512
	for _, m := range benchMods {
		b.Run(m.String(), func(b *testing.B) {
			syms := benchSymbols(m, nSym)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = DemodulateReference(syms, m, 0.02)
			}
		})
	}
}

// BenchmarkTransmitInto tracks the channel at one sampled block's size, in
// place as the UE's radio paths call it; two normal draws per sample
// dominate.
func BenchmarkTransmitInto(b *testing.B) {
	const nSym = 168
	ch := NewChannel(12, 1.5, 0.97, sim.NewRNG(33))
	ch.Advance()
	buf := benchSymbols(QAM16, nSym)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.TransmitInto(buf, buf)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nSym), "ns/sym")
}

// BenchmarkNormFill is the noise share of BenchmarkTransmitInto: the two
// normal draws per sample of one sampled block, in one batch.
func BenchmarkNormFill(b *testing.B) {
	const nSym = 168
	rng := sim.NewRNG(33)
	var z [2 * nSym]float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng.NormFill(z[:])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nSym), "ns/sym")
}
