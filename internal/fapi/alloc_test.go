package fapi

import (
	"testing"

	"slingshot/internal/dsp"
	"slingshot/internal/mem"
)

// TestPDUAssemblyAllocs pins the pooled FAPI round trip: leasing a config,
// assembling PDUs, encoding to a pooled wire buffer, decoding it back and
// releasing everything must not allocate at steady state. A regression here
// means some stage stopped reusing pooled storage.
func TestPDUAssemblyAllocs(t *testing.T) {
	if mem.DetectorArmed() {
		t.Skip("pool double-free detector armed (-race); its bookkeeping allocates")
	}
	cycle := func() {
		ul := GetULConfig(0, 5)
		ul.PDUs = append(ul.PDUs, PDU{
			UEID: 7, HARQID: 1, NewData: true,
			Alloc:   dsp.Allocation{UEID: 7, StartPRB: 0, NumPRB: 10, Mod: dsp.QPSK},
			TBBytes: 64,
		})
		wire := EncodePooled(ul)
		ReleaseShallow(ul)
		m, err := Decode(wire)
		mem.PutBytes(wire)
		if err != nil {
			t.Fatal(err)
		}
		ReleaseDeep(m)
	}
	cycle() // prime the message and buffer pools
	if avg := testing.AllocsPerRun(200, cycle); avg > 0 {
		t.Fatalf("pooled FAPI assembly allocates %.1f times per round trip, want 0", avg)
	}
}

// TestTxDataAssemblyAllocs does the same for the payload-bearing TX_DATA
// path, whose decode leases Data buffers that ReleaseDeep must return.
func TestTxDataAssemblyAllocs(t *testing.T) {
	if mem.DetectorArmed() {
		t.Skip("pool double-free detector armed (-race); its bookkeeping allocates")
	}
	tb := make([]byte, 96)
	for i := range tb {
		tb[i] = byte(i)
	}
	cycle := func() {
		tx := GetTxData(0, 6)
		tx.Payloads = append(tx.Payloads, TBPayload{UEID: 7, HARQID: 1, Data: tb})
		wire := EncodePooled(tx)
		ReleaseShallow(tx)
		m, err := Decode(wire)
		mem.PutBytes(wire)
		if err != nil {
			t.Fatal(err)
		}
		ReleaseDeep(m)
	}
	cycle()
	if avg := testing.AllocsPerRun(200, cycle); avg > 0 {
		t.Fatalf("pooled TX_DATA assembly allocates %.1f times per round trip, want 0", avg)
	}
}
