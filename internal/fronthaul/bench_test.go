package fronthaul

import (
	"testing"

	"slingshot/internal/sim"
)

// BenchmarkBFPRoundTrip tracks the BFP compress+decompress kernel as the
// hot paths run it — append-style APIs over recycled buffers, zero
// allocations per packet. (The seed kernel allocated the encode and decode
// buffers on every call, as measured at commit a1c823e.) 288 samples
// is a 24-PRB allocation, a typical sampled-block payload.
// BenchmarkBFPCompress and BenchmarkBFPDecompress track the two kernel
// halves separately so a regression in one is not masked by the other.
func BenchmarkBFPCompress(b *testing.B) {
	rng := sim.NewRNG(3)
	iq := make([]complex128, 288)
	for i := range iq {
		iq[i] = complex(rng.Norm(), rng.Norm())
	}
	enc, err := AppendCompressBFP(nil, iq, 9) // size the buffer before timing
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err = AppendCompressBFP(enc[:0], iq, 9)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBFPDecompress(b *testing.B) {
	rng := sim.NewRNG(3)
	iq := make([]complex128, 288)
	for i := range iq {
		iq[i] = complex(rng.Norm(), rng.Norm())
	}
	enc, err := CompressBFP(iq, 9)
	if err != nil {
		b.Fatal(err)
	}
	dec, err := AppendDecompressBFP(nil, enc, 9) // size buffer, build tables
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec, err = AppendDecompressBFP(dec[:0], enc, 9)
		if err != nil {
			b.Fatal(err)
		}
	}
	_ = dec
}

func BenchmarkBFPRoundTrip(b *testing.B) {
	rng := sim.NewRNG(3)
	iq := make([]complex128, 288)
	for i := range iq {
		iq[i] = complex(rng.Norm(), rng.Norm())
	}
	// One untimed round trip sizes both buffers and builds the dequant
	// tables: the timed loop is the steady state, zero allocations.
	enc, err := AppendCompressBFP(nil, iq, 9)
	if err != nil {
		b.Fatal(err)
	}
	dec, err := AppendDecompressBFP(nil, enc, 9)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err = AppendCompressBFP(enc[:0], iq, 9)
		if err != nil {
			b.Fatal(err)
		}
		dec, err = AppendDecompressBFP(dec[:0], enc, 9)
		if err != nil {
			b.Fatal(err)
		}
		if len(dec) != len(iq) {
			b.Fatalf("round trip length %d != %d", len(dec), len(iq))
		}
	}
}
