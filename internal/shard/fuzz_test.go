package shard

import (
	"bytes"
	"testing"

	"slingshot/internal/mem"
	"slingshot/internal/sim"
)

// corpusMessages is the seed corpus: one of each kind, plus edge shapes
// (zero fields, max ids, payload boundaries).
func corpusMessages() []Message {
	return []Message{
		{At: 0, Src: 0, Dst: 0, Seq: 0, Kind: KindBackhaul},
		{At: 500_000, Src: 1, Dst: 2, Seq: 1, Kind: KindBackhaul, A: 7, B: 9, Payload: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{At: 1_000_000, Src: 17, Dst: ControllerID, Seq: 42, Kind: KindSpareRequest, A: 1},
		{At: 2_000_000, Src: ControllerID, Dst: 17, Seq: 43, Kind: KindSpareGrant, A: 1},
		{At: 2_000_000, Src: ControllerID, Dst: 18, Seq: 44, Kind: KindSpareDeny, A: 2},
		{At: 3_000_000, Src: ControllerID, Dst: 5, Seq: 45, Kind: KindMigrateCmd},
		{At: 4_000_000, Src: 5, Dst: 6, Seq: 46, Kind: KindHandover, A: 12},
		{At: 5_000_000, Src: ControllerID, Dst: 7, Seq: 47, Kind: KindUpgradeKill},
		{At: 6_000_000, Src: 7, Dst: ControllerID, Seq: 48, Kind: KindSpareRelease},
		{At: 6_500_000, Src: 0xFFFE, Dst: ControllerID, Seq: 49, Kind: KindSpareRelease, A: ^uint64(0)},
		{At: -1, Src: 0xFFFE, Dst: 0xFFFE, Seq: ^uint64(0), Kind: KindHandover, B: ^uint64(0)},
		{At: 1, Src: 3, Dst: 4, Seq: 2, Kind: KindBackhaul, Payload: bytes.Repeat([]byte{0xAB}, 300)},
	}
}

// FuzzDecodeMessage asserts the codec is total and canonical: DecodePooled
// never panics on arbitrary bytes, and any frame it accepts re-encodes to
// the identical bytes.
func FuzzDecodeMessage(f *testing.F) {
	for _, m := range corpusMessages() {
		mm := m
		f.Add(Encode(&mm))
	}
	// Malformed seeds: truncations, bad magic, bad kind, dirty reserved
	// bytes, length mismatches.
	good := Encode(&Message{At: 9, Src: 1, Dst: 2, Seq: 3, Kind: KindBackhaul, Payload: []byte{0xEE}})
	f.Add([]byte{})
	f.Add(good[:headerLen-1])
	f.Add(append([]byte{}, good...))
	bad := append([]byte{}, good...)
	bad[0] = 'X'
	f.Add(bad)
	bad2 := append([]byte{}, good...)
	bad2[2] = byte(kindEnd)
	f.Add(bad2)
	bad3 := append([]byte{}, good...)
	bad3[39] = 1
	f.Add(bad3)
	f.Add(append(append([]byte{}, good...), 0x00)) // trailing byte

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodePooled(data)
		if err != nil {
			return
		}
		defer mem.PutBytes(m.Payload)
		re := Encode(&m)
		if !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", data, re)
		}
		if m.Kind == 0 || m.Kind >= kindEnd {
			t.Fatalf("decode accepted invalid kind %d", m.Kind)
		}
	})
}

// TestCodecRoundTrip pins the struct→wire→struct path for every corpus
// message, including payload aliasing (decoded payloads must not share
// the input buffer).
func TestCodecRoundTrip(t *testing.T) {
	for i, m := range corpusMessages() {
		mm := m
		buf := Encode(&mm)
		if len(buf) != mm.EncodedLen() {
			t.Fatalf("msg %d: encoded %d bytes, EncodedLen says %d", i, len(buf), mm.EncodedLen())
		}
		got, err := DecodePooled(buf)
		if err != nil {
			t.Fatalf("msg %d: decode: %v", i, err)
		}
		defer mem.PutBytes(got.Payload)
		if got.At != m.At || got.Src != m.Src || got.Dst != m.Dst ||
			got.Seq != m.Seq || got.Kind != m.Kind || got.A != m.A || got.B != m.B ||
			!bytes.Equal(got.Payload, m.Payload) {
			t.Fatalf("msg %d: round-trip mismatch\n in  %v\n out %v", i, m, got)
		}
		if len(buf) > headerLen && len(got.Payload) > 0 {
			buf[headerLen] ^= 0xFF
			if got.Payload[0] == buf[headerLen] {
				t.Fatalf("msg %d: decoded payload aliases the input buffer", i)
			}
		}
	}
}

// TestCodecRejects pins the validation errors.
func TestCodecRejects(t *testing.T) {
	good := Encode(&Message{At: sim.Time(7), Src: 1, Dst: 2, Seq: 3, Kind: KindHandover, Payload: []byte{9, 9}})
	upg := Encode(&Message{At: sim.Time(11), Src: ControllerID, Dst: 4, Seq: 9, Kind: KindUpgradeKill})
	rel := Encode(&Message{At: sim.Time(12), Src: 4, Dst: ControllerID, Seq: 10, Kind: KindSpareRelease})
	cases := map[string][]byte{
		"empty":          {},
		"short":          good[:headerLen-1],
		"bad magic":      append([]byte{'x', 'y'}, good[2:]...),
		"zero kind":      mutate(good, 2, 0),
		"kind past end":  mutate(good, 2, byte(kindEnd)),
		"dirty reserved": mutate(good, 39, 0x01),
		"trailing bytes": append(append([]byte{}, good...), 0xFF),
		"truncated body": good[:len(good)-1],
		// The new partition/zone-era kinds stay strict too: the kind byte
		// is valid only in [1, kindEnd), reserved bytes must be zero.
		"upgrade-kill dirty reserved": mutate(upg, 40, 0x80),
		"spare-release trailing":      append(append([]byte{}, rel...), 0x00),
		"spare-release truncated":     rel[:headerLen-2],
	}
	for name, data := range cases {
		if _, err := DecodePooled(data); err == nil {
			t.Errorf("%s: decode accepted %x", name, data)
		}
	}
	m, err := DecodePooled(good)
	if err != nil {
		t.Fatalf("control case rejected: %v", err)
	}
	mem.PutBytes(m.Payload)
}

func mutate(b []byte, i int, v byte) []byte {
	out := append([]byte{}, b...)
	out[i] = v
	return out
}
