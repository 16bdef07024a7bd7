// Package netmodel models the edge-datacenter Ethernet fabric: MAC-style
// addressing, frames, and point-to-point links with bandwidth,
// store-and-forward serialization, propagation latency, jitter, and loss.
//
// Queueing is emergent: each link tracks the departure time of the last
// frame, so bursts above line rate accumulate real queueing delay. This is
// what gives the Orion latency-vs-load experiment (Fig 12) its tail.
package netmodel

import (
	"fmt"

	"slingshot/internal/mem"
	"slingshot/internal/sim"
)

// Addr is a 48-bit MAC-style address stored in the low bits of a uint64.
type Addr uint64

// Broadcast is the all-ones address.
const Broadcast Addr = (1 << 48) - 1

func (a Addr) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x",
		byte(a>>40), byte(a>>32), byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// EtherType discriminates the payload protocol of a frame.
type EtherType uint16

// EtherTypes used by the simulated deployment. ECPRI matches the real
// registered value; the others are private-use values.
const (
	EtherTypeECPRI    EtherType = 0xAEFE // O-RAN fronthaul (eCPRI)
	EtherTypeFAPI     EtherType = 0x88B5 // inter-Orion FAPI transport
	EtherTypeControl  EtherType = 0x88B6 // switch control plane / notifications
	EtherTypeUserData EtherType = 0x0800 // user-plane IP-ish traffic
)

// Frame is an Ethernet-like frame. Payload bytes are owned by the frame
// after Send (senders must not reuse the slice).
type Frame struct {
	Src, Dst Addr
	Type     EtherType
	Payload  []byte

	// Virtual, when larger than len(Payload), is the payload size the
	// frame represents on the wire. The fronthaul simulation carries a
	// sampled code block per slot but models full-carrier IQ bandwidth;
	// Virtual lets link timing reflect the represented size without
	// allocating it.
	Virtual int

	// SentAt is stamped by the link on transmit; used for latency metrics.
	SentAt sim.Time
}

// WireSize returns the frame's size on the wire including an Ethernet
// header+FCS overhead of 18 bytes plus preamble/IPG of 20 bytes, floored at
// the 64-byte minimum frame size.
func (f *Frame) WireSize() int {
	n := len(f.Payload)
	if f.Virtual > n {
		n = f.Virtual
	}
	n += 18
	if n < 64 {
		n = 64
	}
	return n + 20
}

// framePool recycles Frame structs across the fabric's send paths. Every
// frame has exactly one owner at a time — a link delivers to one receiver,
// the switch forwards to one egress — so the terminal receiver (or the
// drop point) releases it.
var framePool = mem.NewPool(func(f *Frame) { *f = Frame{} })

// GetFrame leases a zeroed frame struct from the shared pool. Senders fill
// it and hand ownership to Send/HandleFrame like a heap-allocated frame.
func GetFrame() *Frame { return framePool.Get() }

// ReleaseFrame recycles f and its payload wire buffer. Only the frame's
// terminal consumer may call it, after copying out everything it retains;
// drop paths that skip the call merely lose the buffers to the GC, which
// the pooling contract allows. Safe on nil and on frames (or payloads)
// that were never pooled — the pools adopt them.
func ReleaseFrame(f *Frame) {
	if f == nil {
		return
	}
	mem.PutBytes(f.Payload)
	framePool.Put(f)
}

// Receiver consumes delivered frames. The receiver takes ownership of the
// frame: terminal consumers release it (ReleaseFrame) once done, while
// forwarding hops pass ownership on untouched.
type Receiver interface {
	HandleFrame(f *Frame)
}

// ReceiverFunc adapts a function to the Receiver interface.
type ReceiverFunc func(f *Frame)

// HandleFrame calls fn(f).
func (fn ReceiverFunc) HandleFrame(f *Frame) { fn(f) }

// Link is a unidirectional point-to-point link. Create two for a duplex
// cable. The zero bandwidth means "infinite" (no serialization delay).
type Link struct {
	Engine *sim.Engine
	// BitsPerSec is the line rate; 0 disables serialization delay.
	BitsPerSec float64
	// Latency is the fixed propagation + forwarding delay.
	Latency sim.Time
	// JitterAmp adds a uniform random jitter in [0, JitterAmp] per frame.
	JitterAmp sim.Time
	// LossProb drops frames with this probability.
	LossProb float64
	// RNG drives jitter and loss; required if either is nonzero.
	RNG *sim.RNG
	// To receives delivered frames.
	To Receiver

	lastDepart sim.Time

	// deliverFn is the one delivery closure shared by every frame on this
	// link; the frame rides as the event argument, so Send allocates
	// neither a closure nor (via the engine's event free list) an event.
	deliverFn func(any)

	// Delivered and Dropped count frames for observability.
	Delivered, Dropped uint64
}

// NewLink wires a link delivering to dst.
func NewLink(e *sim.Engine, dst Receiver, bitsPerSec float64, latency sim.Time) *Link {
	return &Link{Engine: e, To: dst, BitsPerSec: bitsPerSec, Latency: latency}
}

// QueueDelay reports how long a frame sent now would wait behind earlier
// frames before starting serialization.
func (l *Link) QueueDelay() sim.Time {
	now := l.Engine.Now()
	if l.lastDepart <= now {
		return 0
	}
	return l.lastDepart - now
}

// Send transmits f. The frame is delivered to the receiver after queueing,
// serialization, and propagation; or dropped per LossProb.
func (l *Link) Send(f *Frame) {
	now := l.Engine.Now()
	f.SentAt = now

	if l.LossProb > 0 && l.RNG != nil && l.RNG.Bool(l.LossProb) {
		l.Dropped++
		ReleaseFrame(f)
		return
	}

	start := now
	if l.lastDepart > start {
		start = l.lastDepart
	}
	var ser sim.Time
	if l.BitsPerSec > 0 {
		bits := float64(f.WireSize() * 8)
		ser = sim.Time(bits / l.BitsPerSec * float64(sim.Second))
		if ser < 1 {
			ser = 1
		}
	}
	depart := start + ser
	l.lastDepart = depart

	arrive := depart + l.Latency
	if l.JitterAmp > 0 && l.RNG != nil {
		arrive += sim.Time(l.RNG.Float64() * float64(l.JitterAmp))
	}
	l.Delivered++
	if l.deliverFn == nil {
		l.deliverFn = func(a any) { l.To.HandleFrame(a.(*Frame)) }
	}
	l.Engine.AtArg(arrive, "link.deliver", l.deliverFn, f)
}

// Duplex is a bidirectional cable made of two symmetric links.
type Duplex struct {
	AB, BA *Link
}

// NewDuplex connects endpoints a and b with symmetric characteristics and
// returns the pair. Frames sent on AB arrive at b and vice versa.
func NewDuplex(e *sim.Engine, a, b Receiver, bitsPerSec float64, latency sim.Time) *Duplex {
	return &Duplex{
		AB: NewLink(e, b, bitsPerSec, latency),
		BA: NewLink(e, a, bitsPerSec, latency),
	}
}
