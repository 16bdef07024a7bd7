package ckpt

import (
	"bytes"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"slingshot/internal/ckpt/wire"
	"slingshot/internal/shard"
	"slingshot/internal/sim"
)

// tinyFleet builds and advances a minimal fleet for codec tests.
func tinyFleet(t testing.TB, seed uint64, steps int) *shard.Fleet {
	t.Helper()
	cfg := shard.DefaultConfig(2, 4)
	cfg.Seed = seed
	cfg.Horizon = 40 * sim.Millisecond
	cfg.Shards = 1
	f, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	for i := 0; i < steps; i++ {
		if done, err := f.Step(); err != nil {
			t.Fatal(err)
		} else if done {
			break
		}
	}
	return f
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	snap := Capture(tinyFleet(t, 7, 20))
	enc := snap.Encode()
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.At != snap.At || dec.Steps != snap.Steps {
		t.Fatalf("meta mismatch: got (%v,%d) want (%v,%d)", dec.At, dec.Steps, snap.At, snap.Steps)
	}
	if !reflect.DeepEqual(dec.Cfg, snap.Cfg) {
		t.Fatalf("config mismatch:\ngot  %+v\nwant %+v", dec.Cfg, snap.Cfg)
	}
	if !bytes.Equal(dec.State, snap.State) {
		t.Fatal("state mismatch")
	}
	if re := dec.Encode(); !bytes.Equal(re, enc) {
		t.Fatal("decode→encode is not the identity (codec not canonical)")
	}
}

// TestDecodeRejects is the reject table: every corruption class must
// produce an error — never a panic, never a silently-divergent snapshot.
func TestDecodeRejects(t *testing.T) {
	valid := Capture(tinyFleet(t, 3, 10)).Encode()
	if _, err := Decode(valid); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	cases := []struct {
		name    string
		corrupt func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"truncated-header", func(b []byte) []byte { return b[:6] }},
		{"truncated-mid", func(b []byte) []byte { return b[:len(b)/2] }},
		{"truncated-tail", func(b []byte) []byte { return b[:len(b)-1] }},
		{"bit-flip-early", func(b []byte) []byte { b[14] ^= 0x40; return b }},
		{"bit-flip-mid", func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b }},
		{"bit-flip-fingerprint", func(b []byte) []byte { b[len(b)-3] ^= 0x80; return b }},
		{"trailing-garbage", func(b []byte) []byte { return append(b, 0xAA) }},
		{"version-skew", func(b []byte) []byte {
			// Rewrite the u16 version after the length-prefixed magic, then
			// restamp the fingerprint so only the version is wrong.
			off := 4 + len(Magic)
			b[off], b[off+1] = 0xBE, 0xEF
			return restamp(b)
		}},
		{"bad-magic", func(b []byte) []byte {
			b[4] ^= 0xFF
			return restamp(b)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.corrupt(append([]byte(nil), valid...))
			s, err := Decode(b)
			if err == nil {
				t.Fatalf("corrupt snapshot accepted: %+v", s)
			}
		})
	}
}

// restamp rewrites b's trailing fingerprint to match its body, so a test
// can corrupt one field and nothing else.
func restamp(b []byte) []byte {
	fp := wire.Hash64(b[:len(b)-8])
	for i := 0; i < 8; i++ {
		b[len(b)-8+i] = byte(fp >> (56 - 8*i))
	}
	return b
}

// TestDecodeRefusesPreviousVersion: version 1 images were written under
// random stream v1. Restore replays from the config and byte-compares, so
// such an image would "diverge" at its first noisy block with a section
// error that points at the wrong culprit; Decode must turn it away up
// front, by version, whatever else about it is intact.
func TestDecodeRefusesPreviousVersion(t *testing.T) {
	b := Capture(tinyFleet(t, 3, 10)).Encode()
	off := 4 + len(Magic)
	if got := uint16(b[off])<<8 | uint16(b[off+1]); got != Version || Version != 2 {
		t.Fatalf("image carries version %d, Version is %d, want both 2", got, Version)
	}
	b[off], b[off+1] = 0, 1
	_, err := Decode(restamp(b))
	if err == nil || !strings.Contains(err.Error(), "snapshot version 1, this build reads only version 2") {
		t.Fatalf("version-1 image: err = %v, want the version refusal", err)
	}
}

// TestFuzzCorpusStartsFromAcceptedImage keeps FuzzCheckpointDecode's
// on-disk corpus useful across version bumps: seed-0 must be an image this
// build accepts, or the fuzzer starts from nothing but rejects.
func TestFuzzCorpusStartsFromAcceptedImage(t *testing.T) {
	raw, err := os.ReadFile("testdata/fuzz/FuzzCheckpointDecode/seed-0")
	if err != nil {
		t.Fatal(err)
	}
	body, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
	if !ok {
		t.Fatalf("seed-0 is not a one-[]byte fuzz corpus file: %.40q", raw)
	}
	img, err := strconv.Unquote(strings.TrimSuffix(body, ")"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode([]byte(img)); err != nil {
		t.Fatalf("seed-0 is refused (re-capture the corpus after a Version bump): %v", err)
	}
}

// TestSnapshotRestoreFixedPoint is the satellite property test: snapshot →
// restore → snapshot must be a fixed point — the second capture is
// byte-identical to the first, at quick-generated (seed, barrier) points.
// This pins codec canonicality end to end: if any layer serialized
// nondeterministically (map order, retained pooled buffer, clock skew),
// the second image would move.
func TestSnapshotRestoreFixedPoint(t *testing.T) {
	prop := func(seedLo uint8, stepsLo uint8) bool {
		seed := uint64(seedLo)%5 + 1
		steps := int(stepsLo) % 50
		first := Capture(tinyFleet(t, seed, steps))
		f, err := Restore(first)
		if err != nil {
			t.Logf("restore: %v", err)
			return false
		}
		second := Capture(f)
		if !bytes.Equal(second.State, first.State) {
			t.Logf("seed=%d steps=%d: second state image differs at %s",
				seed, steps, wire.Diff(first.State, second.State))
			return false
		}
		return bytes.Equal(second.Encode(), first.Encode())
	}
	cfg := &quick.Config{
		MaxCount: 6,
		Rand:     rand.New(rand.NewSource(42)),
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeDecodeQuickConfigs round-trips quick-generated config field
// soups through the snapshot codec (no fleet needed): the config layer
// must be canonical independent of whether the values describe a runnable
// fleet.
func TestEncodeDecodeQuickConfigs(t *testing.T) {
	prop := func(cells, ues, kills uint16, seed uint64, horizonUS uint32, traceOn bool, state []byte) bool {
		s := &Snapshot{
			At:    sim.Time(horizonUS) * sim.Microsecond,
			Steps: uint64(horizonUS),
			Cfg: shard.Config{
				Cells:   int(cells),
				UEs:     int(ues),
				Seed:    seed,
				Horizon: sim.Time(horizonUS) * sim.Microsecond,
				Step:    sim.Millisecond,
				Kills:   int(kills),
				Trace:   traceOn,
			},
			State: state,
		}
		enc := s.Encode()
		dec, err := Decode(enc)
		if err != nil {
			return false
		}
		return bytes.Equal(dec.Encode(), enc) && reflect.DeepEqual(dec.Cfg, s.Cfg)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestScenarioRegistry(t *testing.T) {
	for _, name := range ScenarioNames() {
		cfg, err := Scenario(name, 8, 16)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cfg.Cells < 1 {
			t.Fatalf("%s: empty fleet", name)
		}
	}
	if _, err := Scenario("no-such-scenario", 8, 16); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}
