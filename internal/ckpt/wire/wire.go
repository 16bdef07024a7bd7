// Package wire is the canonical byte codec underneath deployment
// snapshots (internal/ckpt). It is deliberately dependency-free so every
// layer package — sim, phy, l2, shard, chaos — can serialize its state
// into a snapshot section without import cycles.
//
// Canonicality is the load-bearing property: one logical state has
// exactly one encoding. All integers are fixed-width big-endian, strings
// and blobs are length-prefixed, maps are only ever written in sorted key
// order by callers, and the reader rejects anything the writer could not
// have produced (truncation, oversized lengths, trailing bytes). That is
// what lets the snapshot fixed-point property hold bytewise and lets the
// fuzzer assert decode(encode(x)) == x.
package wire

import (
	"errors"
	"fmt"
	"math"
)

// Hash64 is FNV-1a over a byte slice, the snapshot fingerprint primitive.
func Hash64(b []byte) uint64 {
	return HashMore(HashInit, b)
}

// HashInit is the FNV-1a offset basis.
const HashInit = uint64(0xcbf29ce484222325)

const hashPrime = uint64(0x100000001b3)

// HashMore folds more bytes into a running FNV-1a hash.
func HashMore(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= hashPrime
	}
	return h
}

// HashU64 folds a uint64 (big-endian) into a running FNV-1a hash.
func HashU64(h uint64, v uint64) uint64 {
	var b [8]byte
	b[0], b[1], b[2], b[3] = byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32)
	b[4], b[5], b[6], b[7] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
	return HashMore(h, b[:])
}

// HashF64 folds a float64's IEEE-754 bit pattern into a running hash.
func HashF64(h uint64, v float64) uint64 {
	return HashU64(h, math.Float64bits(v))
}

// W is an append-only canonical writer.
type W struct {
	b []byte
}

// NewW returns an empty writer.
func NewW() *W { return &W{} }

// Bytes returns the encoded buffer (aliased, not copied).
func (w *W) Bytes() []byte { return w.b }

// Len returns the number of bytes written so far.
func (w *W) Len() int { return len(w.b) }

// U8 writes one byte.
func (w *W) U8(v uint8) { w.b = append(w.b, v) }

// Bool writes a boolean as one byte (0 or 1).
func (w *W) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U16 writes a big-endian uint16.
func (w *W) U16(v uint16) { w.b = append(w.b, byte(v>>8), byte(v)) }

// U32 writes a big-endian uint32.
func (w *W) U32(v uint32) {
	w.b = append(w.b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// U64 writes a big-endian uint64.
func (w *W) U64(v uint64) {
	w.b = append(w.b,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// I64 writes a big-endian int64 (two's complement).
func (w *W) I64(v int64) { w.U64(uint64(v)) }

// F64 writes a float64 as its IEEE-754 bit pattern.
func (w *W) F64(v float64) { w.U64(math.Float64bits(v)) }

// Str writes a length-prefixed string.
func (w *W) Str(s string) {
	w.U32(uint32(len(s)))
	w.b = append(w.b, s...)
}

// Blob writes a length-prefixed byte slice. The bytes are copied into the
// writer's buffer immediately, so pooled buffers may be recycled by the
// caller right after the call — a snapshot never retains pooled memory.
func (w *W) Blob(b []byte) {
	w.U32(uint32(len(b)))
	w.b = append(w.b, b...)
}

// Section writes a named, length-prefixed subsection: fn's output becomes
// the section body. Sections give snapshots a diffable shape — see Diff.
func (w *W) Section(name string, fn func(*W)) {
	w.Str(name)
	lenAt := len(w.b)
	w.U32(0) // backpatched below
	start := len(w.b)
	fn(w)
	n := len(w.b) - start
	w.b[lenAt] = byte(n >> 24)
	w.b[lenAt+1] = byte(n >> 16)
	w.b[lenAt+2] = byte(n >> 8)
	w.b[lenAt+3] = byte(n)
}

// Reader errors. ErrTruncated covers every short read; ErrOversized
// covers length prefixes that overrun the remaining input.
var (
	ErrTruncated = errors.New("wire: truncated input")
	ErrOversized = errors.New("wire: length prefix exceeds input")
)

// R is a bounds-checked canonical reader. The first failure latches into
// Err; all subsequent reads return zero values. R never panics on hostile
// input.
type R struct {
	b   []byte
	off int
	err error
}

// NewR returns a reader over b.
func NewR(b []byte) *R { return &R{b: b} }

// Err returns the first decoding error, or nil.
func (r *R) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *R) Remaining() int { return len(r.b) - r.off }

// More reports whether any unread bytes remain and no error has latched.
func (r *R) More() bool { return r.err == nil && r.off < len(r.b) }

// Close verifies the input was consumed exactly. Trailing bytes are a
// canonicality violation and latch an error.
func (r *R) Close() error {
	if r.err == nil && r.off != len(r.b) {
		r.err = fmt.Errorf("wire: %d trailing bytes", len(r.b)-r.off)
	}
	return r.err
}

func (r *R) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *R) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
		r.fail(ErrTruncated)
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

// U8 reads one byte.
func (r *R) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean, rejecting non-canonical encodings (not 0/1).
func (r *R) Bool() bool {
	v := r.U8()
	if r.err == nil && v > 1 {
		r.fail(fmt.Errorf("wire: non-canonical bool byte %d", v))
		return false
	}
	return v == 1
}

// U16 reads a big-endian uint16.
func (r *R) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return uint16(b[0])<<8 | uint16(b[1])
}

// U32 reads a big-endian uint32.
func (r *R) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// U64 reads a big-endian uint64.
func (r *R) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}

// I64 reads a big-endian int64.
func (r *R) I64() int64 { return int64(r.U64()) }

// F64 reads an IEEE-754 float64.
func (r *R) F64() float64 { return math.Float64frombits(r.U64()) }

// lenPrefix reads a u32 length and validates it against the remaining
// input, so hostile prefixes cannot trigger huge allocations.
func (r *R) lenPrefix() int {
	n := int(r.U32())
	if r.err != nil {
		return 0
	}
	if n > r.Remaining() {
		r.fail(ErrOversized)
		return 0
	}
	return n
}

// Str reads a length-prefixed string.
func (r *R) Str() string {
	n := r.lenPrefix()
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Blob reads a length-prefixed byte slice (copied out of the input).
func (r *R) Blob() []byte {
	n := r.lenPrefix()
	b := r.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// Section reads one named section and returns its name and a sub-reader
// over the body. On error it returns an empty name and a drained reader.
func (r *R) Section() (string, *R) {
	name := r.Str()
	n := r.lenPrefix()
	body := r.take(n)
	if r.err != nil {
		return "", NewR(nil)
	}
	return name, NewR(body)
}

// Diff walks two section streams and describes the first difference as a
// /-separated path of section names — the time-travel debugger's "which
// layer diverged" answer. A path ends in /<bytes> where the difference lies
// in bytes that are not section-framed, such as a leaf section's body.
// Empty string means the streams are identical.
func Diff(a, b []byte) string {
	return diffPath(NewR(a), NewR(b), "")
}

func diffPath(ra, rb *R, prefix string) string {
	for ra.More() || rb.More() {
		if !ra.More() || !rb.More() {
			return prefix + "/<section-count>"
		}
		offA, offB := ra.off, rb.off
		na, ba := ra.Section()
		nb, bb := rb.Section()
		if ra.Err() != nil || rb.Err() != nil {
			// Not section-framed at this level: byte-compare from where the
			// section began (both may fail at one offset past a difference).
			if string(ra.b[offA:]) != string(rb.b[offB:]) {
				return prefix + "/<bytes>"
			}
			return ""
		}
		if na != nb {
			return fmt.Sprintf("%s/<%s|%s>", prefix, na, nb)
		}
		if string(ba.b) != string(bb.b) {
			// Recurse: the bodies may themselves be section streams; a body
			// that is not ends its path in /<bytes>.
			return diffPath(ba, bb, prefix+"/"+na)
		}
	}
	return ""
}
