package ckpt

import (
	"bytes"
	"testing"

	"slingshot/internal/ckpt/wire"
)

// FuzzCheckpointDecode asserts the codec's two survival properties on
// arbitrary bytes: Decode never panics, and anything it accepts is
// canonical — re-encoding reproduces the input byte-for-byte, and the
// embedded state image re-diffs clean. Seeds cover the valid encoding
// plus each reject-table class so the fuzzer starts at the interesting
// boundaries.
func FuzzCheckpointDecode(f *testing.F) {
	valid := Capture(tinyFleet(f, 11, 12)).Encode()
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)/2])              // truncation
	f.Add(valid[:8])                         // header only
	f.Add(append([]byte(nil), valid[4:]...)) // sheared magic
	flip := append([]byte(nil), valid...)
	flip[len(flip)/3] ^= 0x10
	f.Add(flip) // bit flip
	skew := append([]byte(nil), valid...)
	skew[4+len(Magic)] = 0x7F // version byte, fingerprint now stale too
	f.Add(skew)
	long := append(append([]byte(nil), valid...), 0, 1, 2, 3)
	f.Add(long) // trailing bytes

	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := Decode(b)
		if err != nil {
			return // rejection is always a valid outcome
		}
		re := s.Encode()
		if !bytes.Equal(re, b) {
			t.Fatalf("accepted non-canonical input:\n in: %x\nout: %x", b, re)
		}
		if d := wire.Diff(s.State, s.State); d != "" {
			t.Fatalf("self-diff of accepted state image: %s", d)
		}
	})
}
