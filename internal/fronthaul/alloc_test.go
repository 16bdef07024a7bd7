package fronthaul

import (
	"testing"

	"slingshot/internal/mem"
)

// TestPacketRoundTripAllocs pins the pooled fronthaul TX path and the
// caller-owned receive: building a U-plane packet (pooled struct + pooled
// BFP payload), serializing, recycling, and decoding the wire bytes back
// into a reused Packet with DecodeFrom (including IQ decompression into a
// reused buffer). The test's own wire buffer is the only allocation; in
// production it is a pooled lease whose ownership moves to the frame.
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
	var rx Packet
	cycle := func() {
		pkt, err := NewUplinkIQ(3, 1, slot, 0, 10, iq, 9)
		if err != nil {
			t.Fatal(err)
		}
		wire := encode(pkt)
		mem.PutBytes(pkt.Payload)
		pkt.Recycle()
		if err := rx.DecodeFrom(wire); err != nil {
			t.Fatal(err)
		}
		iqBuf, err = rx.AppendIQ(iqBuf[:0])
		if err != nil {
			t.Fatal(err)
		}
	}
	cycle() // prime the packet and buffer pools, size iqBuf
	if avg := testing.AllocsPerRun(200, cycle); avg > 1 {
		t.Fatalf("packet round trip allocates %.1f times, want <= 1 (the wire buffer)", avg)
	}
}
