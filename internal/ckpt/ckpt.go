// Package ckpt implements versioned, fingerprinted whole-deployment
// snapshots for sharded fleets, and the verified-replay Restore path that
// makes them a time-travel primitive.
//
// A snapshot is taken at a lockstep TTI barrier — the only instant the
// fleet is globally consistent — and carries three things: the normalized
// fleet config, the barrier time, and a canonical section-framed image of
// every layer's live state (engine queues, RNG points, PHY/HARQ/RLC/L2/
// UE/RU/Orion/switch state, mailbox, spare-pool ledgers, chaos-checker
// cursors, trace counters). Event-queue closures cannot be serialized, so
// Restore reconstructs a fleet by deterministic re-execution from time
// zero to the barrier and then byte-compares the re-captured state image
// against the snapshot's. A mismatch is an error naming the diverging
// section — never a silent divergence. The determinism contract the rest
// of the repo defends (byte-identical runs at any shards × workers ×
// pooling) is exactly what makes this replay-anchored restore sound.
package ckpt

import (
	"bytes"
	"fmt"

	"slingshot/internal/ckpt/wire"
	"slingshot/internal/shard"
	"slingshot/internal/sim"
)

// Magic heads every encoded snapshot.
const Magic = "SLNGCKPT"

// Version is the current snapshot codec version. Decode rejects any other
// value: snapshot layouts are pinned per-version and there are no
// cross-version migrations (a snapshot is a debugging artifact, not an
// archival format — see DESIGN.md §14 for the policy). The version also
// moves when the layout does not but what a replay computes does: 2 is
// random stream v2 (ziggurat noise, word-wise scrambler and pilots), under
// which a version-1 image could only fail Restore's byte comparison.
const Version uint16 = 2

// Snapshot is one captured barrier.
type Snapshot struct {
	// At is the barrier's virtual time; Steps is its index on the barrier
	// grid (At / Cfg.Step, with the final partial step counting as one).
	At    sim.Time
	Steps uint64

	// Cfg is the normalized fleet config the run was built from; Restore
	// rebuilds from it, so a snapshot is self-contained.
	Cfg shard.Config

	// State is the canonical section stream written by Fleet.SnapshotTo.
	State []byte

	// Fingerprint is FNV-1a over the encoded header+meta+config+state,
	// computed by Encode and verified by Decode.
	Fingerprint uint64
}

// Capture snapshots a fleet at its current barrier. Call only between
// Step calls (or before the first / after the last).
func Capture(f *shard.Fleet) *Snapshot {
	w := wire.NewW()
	f.SnapshotTo(w)
	cfg := f.Config()
	at := f.Now()
	steps := uint64(0)
	if cfg.Step > 0 {
		steps = uint64((at + cfg.Step - 1) / cfg.Step)
	}
	return &Snapshot{At: at, Steps: steps, Cfg: cfg, State: w.Bytes()}
}

// Encode renders the snapshot in its canonical byte form and stamps
// Fingerprint.
func (s *Snapshot) Encode() []byte {
	w := wire.NewW()
	w.Str(Magic)
	w.U16(Version)
	w.Section("meta", func(w *wire.W) {
		w.I64(int64(s.At))
		w.U64(s.Steps)
	})
	w.Section("config", func(w *wire.W) {
		encodeConfig(w, s.Cfg)
	})
	w.Section("state", func(w *wire.W) {
		w.Blob(s.State)
	})
	s.Fingerprint = wire.Hash64(w.Bytes())
	w.U64(s.Fingerprint)
	return w.Bytes()
}

// Decode parses and validates a canonical snapshot. It never panics on
// hostile input, and rejects truncation, bit flips (fingerprint), version
// skew, unknown sections, and trailing bytes. Accepted inputs re-encode
// byte-identically (the codec's canonicality fixed point).
func Decode(b []byte) (*Snapshot, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("ckpt: %w", wire.ErrTruncated)
	}
	body, tail := b[:len(b)-8], b[len(b)-8:]
	want := wire.NewR(tail).U64()
	if got := wire.Hash64(body); got != want {
		return nil, fmt.Errorf("ckpt: fingerprint mismatch (got %016x want %016x): corrupt snapshot", got, want)
	}
	r := wire.NewR(body)
	if r.Str() != Magic {
		return nil, fmt.Errorf("ckpt: bad magic: not a snapshot")
	}
	if v := r.U16(); v != Version {
		return nil, fmt.Errorf("ckpt: snapshot version %d, this build reads only version %d", v, Version)
	}
	s := &Snapshot{Fingerprint: want}
	for _, wantName := range []string{"meta", "config", "state"} {
		name, sec := r.Section()
		if r.Err() != nil {
			return nil, fmt.Errorf("ckpt: %w", r.Err())
		}
		if name != wantName {
			return nil, fmt.Errorf("ckpt: section %q where %q expected", name, wantName)
		}
		switch wantName {
		case "meta":
			s.At = sim.Time(sec.I64())
			s.Steps = sec.U64()
		case "config":
			cfg, err := decodeConfig(sec)
			if err != nil {
				return nil, err
			}
			s.Cfg = cfg
		case "state":
			s.State = sec.Blob()
		}
		if err := sec.Close(); err != nil {
			return nil, fmt.Errorf("ckpt: %s section: %w", wantName, err)
		}
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	if s.At < 0 {
		return nil, fmt.Errorf("ckpt: negative barrier time %d", s.At)
	}
	return s, nil
}

// configVersion guards the config layout inside the snapshot; bumping the
// field set bumps this, and Decode rejects the skew explicitly instead of
// misparsing old bytes.
const configVersion uint16 = 1

func encodeConfig(w *wire.W, c shard.Config) {
	w.U16(configVersion)
	w.U32(uint32(c.Cells))
	w.U32(uint32(c.UEs))
	w.U32(uint32(c.Shards))
	w.U64(c.Seed)
	w.I64(int64(c.Horizon))
	w.I64(int64(c.Step))
	w.I64(int64(c.Settle))
	w.I64(int64(c.TrafficPeriod))
	w.U32(uint32(c.PacketBytes))
	w.I64(int64(c.BackhaulPeriod))
	w.I64(int64(c.BackhaulLatency))
	w.U32(uint32(c.Kills))
	w.U32(uint32(c.Spares))
	w.U32(uint32(c.Migrations))
	w.U32(uint32(c.Topo.Zones))
	w.U32(uint32(c.Topo.ZoneSpares))
	w.U32(uint32(c.Topo.OverflowSpares))
	w.I64(int64(c.Topo.CrossZonePenalty))
	w.U32(uint32(c.RackLosses))
	w.U32(uint32(c.Partitions))
	w.I64(int64(c.PartitionLen))
	w.U32(uint32(c.UpgradeWaves))
	w.I64(int64(c.WaveStride))
	w.I64(int64(c.UpgradeHold))
	w.I64(int64(c.RecoveryDeadline))
	w.U32(uint32(c.MaxRetries))
	w.Bool(c.Trace)
	w.I64(int64(c.RogueAt))
	w.U32(uint32(c.RogueCell))
}

func decodeConfig(r *wire.R) (shard.Config, error) {
	var c shard.Config
	if v := r.U16(); r.Err() == nil && v != configVersion {
		return c, fmt.Errorf("ckpt: config layout version %d, want %d", v, configVersion)
	}
	c.Cells = int(r.U32())
	c.UEs = int(r.U32())
	c.Shards = int(r.U32())
	c.Seed = r.U64()
	c.Horizon = sim.Time(r.I64())
	c.Step = sim.Time(r.I64())
	c.Settle = sim.Time(r.I64())
	c.TrafficPeriod = sim.Time(r.I64())
	c.PacketBytes = int(r.U32())
	c.BackhaulPeriod = sim.Time(r.I64())
	c.BackhaulLatency = sim.Time(r.I64())
	c.Kills = int(r.U32())
	c.Spares = int(r.U32())
	c.Migrations = int(r.U32())
	c.Topo.Zones = int(r.U32())
	c.Topo.ZoneSpares = int(r.U32())
	c.Topo.OverflowSpares = int(r.U32())
	c.Topo.CrossZonePenalty = sim.Time(r.I64())
	c.RackLosses = int(r.U32())
	c.Partitions = int(r.U32())
	c.PartitionLen = sim.Time(r.I64())
	c.UpgradeWaves = int(r.U32())
	c.WaveStride = sim.Time(r.I64())
	c.UpgradeHold = sim.Time(r.I64())
	c.RecoveryDeadline = sim.Time(r.I64())
	c.MaxRetries = int(r.U32())
	c.Trace = r.Bool()
	c.RogueAt = sim.Time(r.I64())
	c.RogueCell = int(r.U32())
	if err := r.Err(); err != nil {
		return c, fmt.Errorf("ckpt: config: %w", err)
	}
	return c, nil
}

// Restore rebuilds a live fleet from the snapshot: construct from the
// embedded config, deterministically re-execute to the snapshot barrier,
// then byte-verify the re-captured state image against the snapshot's.
// The returned fleet is parked at the barrier, ready to Step onward.
func Restore(s *Snapshot) (*shard.Fleet, error) {
	return RestoreExec(s, 0)
}

// RestoreExec is Restore with the execution-only shard-group knob
// overridden (0 keeps the embedded value). Shard count never changes
// state bytes — that is the repo's core invariant — so restoring a
// 1-shard snapshot on 4 shard groups must verify cleanly, and this is the
// hook tests use to prove it.
func RestoreExec(s *Snapshot, shards int) (*shard.Fleet, error) {
	cfg := s.Cfg
	if shards > 0 {
		cfg.Shards = shards
	}
	f, err := shard.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("ckpt: rebuilding fleet: %w", err)
	}
	f.Start()
	for f.Now() < s.At {
		done, err := f.Step()
		if err != nil {
			return nil, fmt.Errorf("ckpt: replaying to barrier %v: %w", s.At, err)
		}
		if done && f.Now() < s.At {
			return nil, fmt.Errorf("ckpt: snapshot barrier %v beyond horizon %v", s.At, f.Config().Horizon)
		}
	}
	if f.Now() != s.At {
		return nil, fmt.Errorf("ckpt: replay landed at %v, snapshot barrier is %v (step grid mismatch)", f.Now(), s.At)
	}
	w := wire.NewW()
	f.SnapshotTo(w)
	if !bytes.Equal(w.Bytes(), s.State) {
		return nil, fmt.Errorf("ckpt: restored state diverges from snapshot at section %s", wire.Diff(s.State, w.Bytes()))
	}
	return f, nil
}
