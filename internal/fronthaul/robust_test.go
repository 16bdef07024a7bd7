package fronthaul

import (
	"testing"
	"testing/quick"

	"slingshot/internal/sim"
)

// Decoder robustness: arbitrary bytes must never panic, only error or
// produce a structurally valid packet. These guard the switch dataplane
// and PHY ingress, which parse frames straight off the wire.

func TestDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		pkt, err := Decode(data)
		if err != nil {
			return pkt == nil
		}
		return pkt.Slot.Valid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPeekersNeverPanic(t *testing.T) {
	f := func(data []byte) bool {
		PeekSlot(data)
		PeekEAxC(data)
		PeekType(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeSectionsNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		secs, err := DecodeSections(data)
		return err != nil || secs != nil || len(data) >= 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecompressBFPNeverPanics(t *testing.T) {
	rng := sim.NewRNG(1)
	f := func(n uint16, width uint8) bool {
		w := int(width%15) + 2
		data := make([]byte, int(n)%4096)
		for i := range data {
			data[i] = byte(rng.Uint64())
		}
		iq, err := DecompressBFP(data, w)
		if err != nil {
			return iq == nil
		}
		// Every decoded value must be finite and bounded by the BFP
		// dynamic range.
		for _, s := range iq {
			if real(s) > 9 || real(s) < -9 || imag(s) > 9 || imag(s) < -9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestBitflipCorruptionIsNoise: corrupting a valid U-plane payload must
// never crash the receive path; it decodes to (possibly garbage) IQ —
// which the PHY treats as channel noise, the §4 equivalence.
func TestBitflipCorruptionIsNoise(t *testing.T) {
	rng := sim.NewRNG(2)
	iq := make([]complex128, 24)
	for i := range iq {
		iq[i] = complex(rng.Norm(), rng.Norm())
	}
	pkt, err := NewUplinkIQ(1, 0, SlotID{}, 0, 2, iq, 9)
	if err != nil {
		t.Fatal(err)
	}
	wire := encode(pkt)
	for trial := 0; trial < 200; trial++ {
		mut := append([]byte(nil), wire...)
		for k := 0; k < 3; k++ {
			mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
		}
		got, err := Decode(mut)
		if err != nil {
			continue // header corruption -> rejected, fine
		}
		if got.Type == MsgIQData {
			got.AppendIQ(nil) // must not panic
		}
	}
}
