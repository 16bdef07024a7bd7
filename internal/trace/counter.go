package trace

import (
	"fmt"
	"sort"
	"strings"

	"slingshot/internal/ckpt/wire"
)

// Counter is a monotonic per-deployment event counter. A nil counter is
// the disabled form: Inc/Add no-op, Value reads 0 — so components can hold
// counters unconditionally and pay one pointer compare when tracing is off.
type Counter struct {
	v uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add accumulates n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a per-deployment instantaneous value (queue depth, active HARQ
// sequences). Nil-safe like Counter.
type Gauge struct {
	v int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v = v
	}
}

// Add shifts the value by d (negative allowed).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v += d
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Registry holds one deployment's counters and gauges. Like the Recorder
// it is single-goroutine by contract (event-loop only), so reads mid-run
// are exact, not racy snapshots. A nil *Registry hands out nil counters
// and gauges, keeping every layer's wiring unconditional.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
	}
}

// Counter returns the named counter, creating it on first use. Idempotent:
// the same name always yields the same counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Snapshot is a point-in-time copy of every registered value, keyed by
// name. Gauges and counters share the namespace (registration enforces
// distinct names in practice; a collision keeps the counter).
type Snapshot map[string]int64

// Snapshot captures the current value of every counter and gauge.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return nil
	}
	s := make(Snapshot, len(r.counters)+len(r.gauges))
	for name, g := range r.gauges {
		s[name] = g.v
	}
	for name, c := range r.counters {
		s[name] = int64(c.v)
	}
	return s
}

// names returns the registered names in sorted (stable exposition) order.
func (r *Registry) names() []string {
	out := make([]string, 0, len(r.counters)+len(r.gauges))
	for name := range r.counters {
		out = append(out, name)
	}
	for name := range r.gauges {
		if _, dup := r.counters[name]; !dup {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Exposition renders every metric as "name value" lines in sorted name
// order — the stable text form experiments print and tests compare.
func (r *Registry) Exposition() string {
	if r == nil {
		return ""
	}
	names := r.names()
	if len(names) == 0 {
		return ""
	}
	w := 0
	for _, name := range names {
		if len(name) > w {
			w = len(name)
		}
	}
	snap := r.Snapshot()
	var b strings.Builder
	b.WriteString("counters:\n")
	for _, name := range names {
		fmt.Fprintf(&b, "  %-*s %d\n", w, name, snap[name])
	}
	return b.String()
}

// Fingerprint hashes the exposition text (FNV-1a). Snapshot verification
// and the slingshotd /metrics endpoint use it as a compact identity for
// "these two metric sets are byte-identical".
func (r *Registry) Fingerprint() uint64 {
	return wire.Hash64([]byte(r.Exposition()))
}

// MergeFrom folds another registry into this one: counters accumulate and
// gauges sum, keyed by name. Deterministic given deterministic inputs (the
// values merge, not any iteration order). Used by the shard fleet to
// aggregate per-cell registries into one exposition; merging nil or from
// nil is a no-op.
func (r *Registry) MergeFrom(other *Registry) {
	if r == nil || other == nil {
		return
	}
	for name, c := range other.counters {
		r.Counter(name).Add(c.v)
	}
	for name, g := range other.gauges {
		r.Gauge(name).Add(g.v)
	}
}

// Delta renders the per-metric change since base in sorted name order,
// omitting metrics that did not move. Metrics born after base diff against
// zero.
func (r *Registry) Delta(base Snapshot) string {
	if r == nil {
		return ""
	}
	snap := r.Snapshot()
	names := r.names()
	type row struct {
		name string
		d    int64
		now  int64
	}
	var rows []row
	w := 0
	for _, name := range names {
		d := snap[name] - base[name]
		if d == 0 {
			continue
		}
		rows = append(rows, row{name, d, snap[name]})
		if len(name) > w {
			w = len(name)
		}
	}
	if len(rows) == 0 {
		return "counter deltas: none\n"
	}
	var b strings.Builder
	b.WriteString("counter deltas:\n")
	for _, rw := range rows {
		fmt.Fprintf(&b, "  %-*s %+d (now %d)\n", w, rw.name, rw.d, rw.now)
	}
	return b.String()
}
