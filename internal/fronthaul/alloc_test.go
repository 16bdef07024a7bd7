package fronthaul

import (
	"testing"

	"slingshot/internal/mem"
)

// TestPacketRoundTripAllocs pins the pooled fronthaul TX path: building a
// U-plane packet (pooled struct + pooled BFP payload), serializing,
// recycling, and decoding the wire bytes back (including IQ decompression
// into a reused buffer). Serialize's wire buffer and Decode's packet struct
// are the only remaining allocations — the wire buffer's ownership
// transfers to the frame consumer and decoded packets alias the frame, so
// neither is pooled by design.
func TestPacketRoundTripAllocs(t *testing.T) {
	if mem.DetectorArmed() {
		t.Skip("pool double-free detector armed (-race); its bookkeeping allocates")
	}
	prev := mem.SetEnabled(true)
	defer mem.SetEnabled(prev)
	iq := make([]complex128, 120)
	for i := range iq {
		iq[i] = complex(float64(i%7)/3.5-1, float64(i%5)/2.5-1)
	}
	slot := SlotFromCounter(4)
	var iqBuf []complex128
	cycle := func() {
		pkt, err := NewUplinkIQ(3, 1, slot, 0, 10, iq, 9)
		if err != nil {
			t.Fatal(err)
		}
		wire := encode(pkt)
		mem.PutBytes(pkt.Payload)
		pkt.Recycle()
		rx, err := Decode(wire)
		if err != nil {
			t.Fatal(err)
		}
		iqBuf, err = rx.AppendIQ(iqBuf[:0])
		if err != nil {
			t.Fatal(err)
		}
	}
	cycle() // prime the packet and buffer pools, size iqBuf
	if avg := testing.AllocsPerRun(200, cycle); avg > 2 {
		t.Fatalf("packet round trip allocates %.1f times, want <= 2 (wire buffer + decoded struct)", avg)
	}
}
