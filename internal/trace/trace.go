// Package trace is the deterministic observability layer of the simulated
// vRAN: a typed cross-layer event recorder, per-deployment monotonic
// counters, and the flight recorder the chaos invariant checker dumps when
// a soak seed fails.
//
// Design constraints (DESIGN.md §9):
//
//   - Zero overhead when disabled. Every emission site guards on a nil
//     *Recorder; the disabled path is one pointer compare and must stay
//     alloc-free (BenchmarkTraceDisabled pins <2 ns/op, 0 allocs/op).
//   - Deterministic when enabled. Events may only be emitted from
//     virtual-time (event-loop) code paths, never from inside an
//     internal/par worker batch, so a run's trace is byte-identical at any
//     worker-pool width and across repeated runs of the same seed.
//   - Bounded. Events land in a fixed-capacity ring buffer; the recorder
//     never grows after construction, so tracing a multi-second soak costs
//     the same memory as tracing a 100-TTI smoke run.
//
// One Recorder belongs to one deployment (one engine, one goroutine at a
// time); seed-sharded soaks build one recorder per run and never share.
package trace

import (
	"fmt"
	"strings"

	"slingshot/internal/sim"
)

// EventKind is the typed class of a trace event.
type EventKind uint8

// Event kinds, one per cross-layer seam the tracer observes.
const (
	KindNone EventKind = iota
	// KindTTI marks one PHY slot boundary (a=slot).
	KindTTI
	// KindFECDecode is one uplink FEC decode outcome at pipeline drain
	// (a=slot, b=harq | newData<<8 | ok<<9).
	KindFECDecode
	// KindHARQCombine is one soft-buffer chase-combine (a=proc, b=txCount).
	KindHARQCombine
	// KindHARQFlush is a soft-state discard — migration landing or UE drop
	// (a=interrupted sequences).
	KindHARQFlush
	// KindFronthaulTx is an eCPRI packet leaving a PHY (args via
	// fronthaul.Packet.TraceArgs).
	KindFronthaulTx
	// KindFronthaulRx is an eCPRI packet arriving at a PHY.
	KindFronthaulRx
	// KindFronthaulLoss is a chaos-injected fronthaul perturbation hitting
	// one frame (Label = loss|corrupt|reorder|delay, b=cumulative count).
	KindFronthaulLoss
	// KindSnapshotExport is an L2 hard-state checkpoint (a=cells, b=UEs).
	KindSnapshotExport
	// KindSnapshotImport is an L2 checkpoint restore (a=cells, b=UEs).
	KindSnapshotImport
	// KindFailover is an unplanned Orion migration (a=to server, b=slot).
	KindFailover
	// KindMigration is a planned TTI-boundary migration (a=to server,
	// b=slot).
	KindMigration
	// KindChaosFault is one chaos schedule action firing (Label names the
	// fault family).
	KindChaosFault
	// KindRLCDiscard is an RLC reassembly discard (b=cumulative discards).
	KindRLCDiscard
	// KindCrash is a PHY process crash (Label carries the reason).
	KindCrash
	// KindInvariant is an invariant violation observed by the chaos
	// checker (Label names the invariant).
	KindInvariant
	// KindTick is a generic per-tick probe event used by engine tests.
	KindTick
)

var kindNames = [...]string{
	KindNone:           "none",
	KindTTI:            "tti",
	KindFECDecode:      "fec-decode",
	KindHARQCombine:    "harq-combine",
	KindHARQFlush:      "harq-flush",
	KindFronthaulTx:    "fh-tx",
	KindFronthaulRx:    "fh-rx",
	KindFronthaulLoss:  "fh-perturb",
	KindSnapshotExport: "l2-export",
	KindSnapshotImport: "l2-import",
	KindFailover:       "failover",
	KindMigration:      "migration",
	KindChaosFault:     "chaos-fault",
	KindRLCDiscard:     "rlc-discard",
	KindCrash:          "crash",
	KindInvariant:      "invariant",
	KindTick:           "tick",
}

func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one recorded observation. The payload is fixed-size scalars so
// emission never allocates; Label, when set, must be a static or
// pre-existing string (the emitter only copies the header).
type Event struct {
	// Seq is the event's global emission index (0-based, never wraps).
	Seq uint64
	// At is the virtual timestamp.
	At sim.Time
	// Kind classifies the event; Src/Cell/UE locate it (zero when not
	// applicable; Src is a server or PHY id).
	Kind EventKind
	Src  uint8
	Cell uint16
	UE   uint16
	// A and B are kind-specific arguments (see the kind docs).
	A, B uint64
	// Label is an optional static annotation (fault family, crash reason).
	Label string
}

// String renders one timeline line with the virtual timestamp.
func (e Event) String() string {
	return fmt.Sprintf("[%12.6fms] #%06d %-12s %s", e.At.Millis(), e.Seq, e.Kind, e.detail())
}

func (e Event) detail() string {
	switch e.Kind {
	case KindTTI:
		return fmt.Sprintf("phy=%d cell=%d slot=%d", e.Src, e.Cell, e.A)
	case KindFECDecode:
		return fmt.Sprintf("phy=%d cell=%d ue=%d slot=%d harq=%d new=%t ok=%t",
			e.Src, e.Cell, e.UE, e.A, e.B&0xFF, e.B&(1<<8) != 0, e.B&(1<<9) != 0)
	case KindHARQCombine:
		return fmt.Sprintf("phy=%d cell=%d ue=%d proc=%d tx=%d", e.Src, e.Cell, e.UE, e.A, e.B)
	case KindHARQFlush:
		return fmt.Sprintf("phy=%d cell=%d interrupted=%d", e.Src, e.Cell, e.A)
	case KindFronthaulTx, KindFronthaulRx:
		return fmt.Sprintf("phy=%d cell=%d slot=%d type=%d seq=%d bytes=%d",
			e.Src, e.Cell, e.A&0xFFFF, (e.A>>16)&0xF, (e.A>>24)&0xFF, e.B)
	case KindFronthaulLoss:
		return fmt.Sprintf("%s cell=%d dir=%d total=%d", e.Label, e.Cell, e.A, e.B)
	case KindSnapshotExport, KindSnapshotImport:
		return fmt.Sprintf("l2=%d cells=%d ues=%d", e.Src, e.A, e.B)
	case KindFailover, KindMigration:
		return fmt.Sprintf("cell=%d to-server=%d slot=%d", e.Cell, e.A, e.B)
	case KindChaosFault:
		return fmt.Sprintf("%s cell=%d a=%d b=%d", e.Label, e.Cell, e.A, e.B)
	case KindRLCDiscard:
		return fmt.Sprintf("cell=%d ue=%d discarded=%d", e.Cell, e.UE, e.B)
	case KindCrash:
		return fmt.Sprintf("phy=%d reason=%q", e.Src, e.Label)
	case KindInvariant:
		return fmt.Sprintf("%s cell=%d ue=%d", e.Label, e.Cell, e.UE)
	case KindTick:
		return fmt.Sprintf("%s n=%d", e.Label, e.A)
	default:
		return fmt.Sprintf("src=%d cell=%d ue=%d a=%d b=%d %s", e.Src, e.Cell, e.UE, e.A, e.B, e.Label)
	}
}

// DefaultCapacity is the ring size used when a caller passes 0.
const DefaultCapacity = 4096

// Recorder is a bounded, deterministic event ring plus a counter registry.
// A nil *Recorder is the disabled tracer: every method no-ops, and hot
// emission sites additionally guard with an inline nil check so disabled
// tracing costs one pointer compare.
//
// A Recorder is single-goroutine by contract: it must only be touched from
// the deployment's event-loop goroutine (or the seed-shard goroutine that
// owns the whole run) — the same contract the sim.Engine itself has.
type Recorder struct {
	eng *sim.Engine
	buf []Event
	// total counts every emission; the ring holds the last len(buf).
	total uint64
	reg   *Registry
}

// NewRecorder returns an enabled recorder with the given ring capacity
// (DefaultCapacity when ≤0). The recorder is unbound: timestamps read 0
// until Bind attaches an engine — core wiring binds it at deployment
// construction.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{buf: make([]Event, capacity), reg: NewRegistry()}
}

// Bind attaches the virtual clock. Called once by the deployment builder;
// events emitted before Bind carry timestamp 0.
func (r *Recorder) Bind(eng *sim.Engine) {
	if r != nil {
		r.eng = eng
	}
}

// Metrics returns the recorder's counter registry (nil when disabled —
// Registry methods are nil-safe too).
func (r *Recorder) Metrics() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

func (r *Recorder) now() sim.Time {
	if r.eng == nil {
		return 0
	}
	return r.eng.Now()
}

// Emit records one event. Safe on a nil recorder (no-op); hot paths should
// still guard `if rec != nil` at the call site so the disabled cost is a
// single pointer compare with no call.
func (r *Recorder) Emit(kind EventKind, src uint8, cell, ue uint16, a, b uint64) {
	if r == nil {
		return
	}
	r.push(Event{Kind: kind, Src: src, Cell: cell, UE: ue, A: a, B: b})
}

// EmitLabeled records one event carrying a static string annotation.
func (r *Recorder) EmitLabeled(kind EventKind, label string, src uint8, cell, ue uint16, a, b uint64) {
	if r == nil {
		return
	}
	r.push(Event{Kind: kind, Src: src, Cell: cell, UE: ue, A: a, B: b, Label: label})
}

func (r *Recorder) push(e Event) {
	e.Seq = r.total
	e.At = r.now()
	r.buf[r.total%uint64(len(r.buf))] = e
	r.total++
}

// Total returns how many events have been emitted (including evicted ones).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.total
}

// Len returns how many events the ring currently holds.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	if r.total < uint64(len(r.buf)) {
		return int(r.total)
	}
	return len(r.buf)
}

// Capacity returns the ring size (0 when disabled).
func (r *Recorder) Capacity() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Events returns the retained events oldest-first. The slice is a copy.
func (r *Recorder) Events() []Event {
	return r.Last(r.Len())
}

// Last returns up to n most recent events, oldest-first.
func (r *Recorder) Last(n int) []Event {
	if r == nil || n <= 0 {
		return nil
	}
	held := r.Len()
	if n > held {
		n = held
	}
	out := make([]Event, n)
	cap64 := uint64(len(r.buf))
	start := r.total - uint64(n)
	for i := 0; i < n; i++ {
		out[i] = r.buf[(start+uint64(i))%cap64]
	}
	return out
}

// Timeline renders every retained event as one line per event, oldest
// first. Byte-identical across worker counts for the same seeded run.
func (r *Recorder) Timeline() string {
	return timeline(r.Events())
}

func timeline(events []Event) string {
	var b strings.Builder
	for _, e := range events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Serialize renders the full deterministic trace: a header with totals,
// the timeline, and the counter exposition. Two recorders fed the same
// seeded run serialize identically (the determinism tests' contract).
func (r *Recorder) Serialize() string {
	if r == nil {
		return "trace: disabled\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d events emitted, %d retained (capacity %d)\n",
		r.total, r.Len(), len(r.buf))
	b.WriteString(r.Timeline())
	b.WriteString(r.reg.Exposition())
	return b.String()
}

// FlightDump renders the flight-recorder view the chaos checker attaches
// to a failing report: the last n events before the violation, plus the
// counter deltas since base (a Snapshot taken when the checker attached).
func (r *Recorder) FlightDump(n int, base Snapshot) string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	events := r.Last(n)
	fmt.Fprintf(&b, "flight recorder: last %d of %d events at %.6fms\n",
		len(events), r.total, r.now().Millis())
	b.WriteString(timeline(events))
	b.WriteString(r.reg.Delta(base))
	return b.String()
}
