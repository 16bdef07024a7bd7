// Package shard scales the simulated vRAN from one cell on one event loop
// to a metro-sized fleet: N per-cell sim.Engine shards — each owning a
// full core.Deployment — advance in lockstep at TTI boundaries and
// exchange cross-cell traffic (backhaul load reports, Orion migrations to
// pooled spares, controller switch-rule updates, handover offloads)
// through a deterministic inter-shard mailbox.
//
// The determinism contract (DESIGN.md §11) extends the worker-count
// invariance of internal/par to shard count: mailbox messages drain in
// (deliveryTime, srcShard, seq) order, where srcShard is the *logical*
// per-cell shard index — never the runner-group index — so fleet reports
// are byte-identical at any shard-group count (Config.Shards) and any
// worker-pool width (par.SetWorkers).
package shard

import (
	"fmt"

	"slingshot/internal/mem"
	"slingshot/internal/sim"
)

// Kind classifies an inter-shard message.
type Kind uint8

// Message kinds, one per cross-cell interaction the fleet models.
const (
	// KindBackhaul is a periodic X2-style load report to the ring
	// neighbor (A/B = delivered UL/DL packet counts; payload carries the
	// sender's running backhaul digest).
	KindBackhaul Kind = iota + 1
	// KindSpareRequest asks the fleet controller for a pooled spare PHY
	// after a kill left the cell without a standby (A = dead server id).
	KindSpareRequest
	// KindSpareGrant assigns a pooled spare to the requesting cell; the
	// cell reprovisions its standby from Orion's stored CONFIG (§6.3).
	KindSpareGrant
	// KindSpareDeny reports pool exhaustion; the cell runs unprotected
	// and offloads via KindHandover.
	KindSpareDeny
	// KindMigrateCmd is a controller-ordered planned migration (the
	// switch-rule-update path of a fleet-wide upgrade wave).
	KindMigrateCmd
	// KindHandover carries load a spare-denied cell offloads to its ring
	// neighbor (A = offloaded units).
	KindHandover
	// KindUpgradeKill is one step of a rolling upgrade wave: the cell
	// takes its active PHY down for maintenance (failing over to the hot
	// standby), asks for a pooled spare, and returns the upgraded server
	// to its zone's pool via KindSpareRelease after the hold elapses.
	KindUpgradeKill
	// KindSpareRelease returns one unit of spare capacity to the source
	// cell's zone pool: an upgraded server rejoining after its hold, or a
	// grant the cell could not use (spare already serving / crashed).
	KindSpareRelease

	kindEnd // one past the last valid kind
)

var kindNames = [...]string{
	KindBackhaul:     "backhaul",
	KindSpareRequest: "spare-request",
	KindSpareGrant:   "spare-grant",
	KindSpareDeny:    "spare-deny",
	KindMigrateCmd:   "migrate-cmd",
	KindHandover:     "handover",
	KindUpgradeKill:  "upgrade-kill",
	KindSpareRelease: "spare-release",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ControllerID is the logical shard id of the fleet controller in Src/Dst
// fields; cell shards use their fleet-wide cell index (0-based).
const ControllerID = 0xFFFF

// Message is one inter-shard exchange. At is the *delivery* virtual time
// — assigned by the sender as sendTime + the fleet's backhaul latency —
// and (At, Src, Seq) is the canonical drain key: Seq increases per source
// shard, so the triple totally orders every message in a run regardless
// of how cells are grouped onto runner goroutines.
type Message struct {
	At      sim.Time
	Src     uint16 // logical source shard (cell index, or ControllerID)
	Dst     uint16
	Seq     uint64 // per-source sequence number
	Kind    Kind
	A, B    uint64
	Payload []byte
}

// Wire form: a fixed 43-byte header followed by the payload.
//
//	0:2   magic "SH"
//	2     kind
//	3:5   src  (big-endian uint16)
//	5:7   dst
//	7:15  seq  (big-endian uint64)
//	15:23 at   (big-endian uint64, two's-complement sim.Time)
//	23:31 a
//	31:39 b
//	39:41 reserved (zero)
//	41:43 payload length (big-endian uint16)
//	43:.. payload
const (
	headerLen  = 43
	magic0     = 'S'
	magic1     = 'H'
	maxPayload = 0xFFFF
)

func putU16(b []byte, v uint16) { b[0], b[1] = byte(v>>8), byte(v) }
func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (56 - 8*i))
	}
}
func getU16(b []byte) uint16 { return uint16(b[0])<<8 | uint16(b[1]) }
func getU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// EncodedLen returns the wire size of m.
func (m *Message) EncodedLen() int { return headerLen + len(m.Payload) }

// AppendEncode appends m's canonical wire form to dst and returns the
// extended slice. Payloads longer than maxPayload are truncated (no
// fleet message approaches the cap; the codec stays total).
func (m *Message) AppendEncode(dst []byte) []byte {
	p := m.Payload
	if len(p) > maxPayload {
		p = p[:maxPayload]
	}
	n := len(dst)
	for cap(dst) < n+headerLen+len(p) {
		dst = append(dst[:cap(dst)], 0)
	}
	dst = dst[:n+headerLen+len(p)]
	h := dst[n:]
	h[0], h[1], h[2] = magic0, magic1, byte(m.Kind)
	putU16(h[3:], m.Src)
	putU16(h[5:], m.Dst)
	putU64(h[7:], m.Seq)
	putU64(h[15:], uint64(m.At))
	putU64(h[23:], m.A)
	putU64(h[31:], m.B)
	h[39], h[40] = 0, 0
	putU16(h[41:], uint16(len(p)))
	copy(h[headerLen:], p)
	return dst
}

// Encode returns m's canonical wire form in a fresh buffer.
func Encode(m *Message) []byte {
	return m.AppendEncode(make([]byte, 0, m.EncodedLen()))
}

// Decode parses one wire message. The buffer must hold exactly one
// message (trailing bytes are an error: frames are length-delimited by
// the transport). The payload is copied out, so the caller may recycle
// data immediately.
func Decode(data []byte) (Message, error) {
	return decode(data, false)
}

// DecodePooled is Decode with the payload copy leased from internal/mem
// instead of freshly allocated: the caller owns it and must
// mem.PutBytes(m.Payload) once the message is fully consumed (losing it
// on a drop path is safe — the GC reclaims it). With pooling disabled
// (mem.SetEnabled(false)) it degrades to exactly Decode.
func DecodePooled(data []byte) (Message, error) {
	return decode(data, true)
}

func decode(data []byte, pooled bool) (Message, error) {
	var m Message
	if len(data) < headerLen {
		return m, fmt.Errorf("shard: message truncated (%d bytes)", len(data))
	}
	if data[0] != magic0 || data[1] != magic1 {
		return m, fmt.Errorf("shard: bad magic %#x%x", data[0], data[1])
	}
	k := Kind(data[2])
	if k == 0 || k >= kindEnd {
		return m, fmt.Errorf("shard: unknown message kind %d", data[2])
	}
	if data[39] != 0 || data[40] != 0 {
		return m, fmt.Errorf("shard: nonzero reserved bytes")
	}
	plen := int(getU16(data[41:]))
	if len(data) != headerLen+plen {
		return m, fmt.Errorf("shard: length mismatch (%d bytes, payload claims %d)", len(data), plen)
	}
	m.Kind = k
	m.Src = getU16(data[3:])
	m.Dst = getU16(data[5:])
	m.Seq = getU64(data[7:])
	m.At = sim.Time(getU64(data[15:]))
	m.A = getU64(data[23:])
	m.B = getU64(data[31:])
	if plen > 0 {
		if pooled {
			m.Payload = append(mem.GetBytesCap(plen), data[headerLen:headerLen+plen]...)
		} else {
			m.Payload = make([]byte, plen)
			copy(m.Payload, data[headerLen:])
		}
	}
	return m, nil
}

func (m Message) String() string {
	return fmt.Sprintf("%s %d→%d seq=%d at=%v a=%d b=%d len=%d",
		m.Kind, m.Src, m.Dst, m.Seq, m.At, m.A, m.B, len(m.Payload))
}
