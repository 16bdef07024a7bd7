package wire

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// TestDiffFramingErrorAtSameOffset pins Diff on two images whose framing
// fails at the same offset: both declare an oversized section body, so
// each reader latches ErrOversized with nothing left. The images differ in
// the section name, and Diff must say so rather than report them identical.
func TestDiffFramingErrorAtSameOffset(t *testing.T) {
	a := []byte{0, 0, 0, 1, 'Z', 0xff, 0xff, 0xff, 0xff}
	b := []byte{0, 0, 0, 1, 'Y', 0xff, 0xff, 0xff, 0xff}
	if got := Diff(a, b); got != "/<bytes>" {
		t.Fatalf("Diff = %q, want %q", got, "/<bytes>")
	}
	if got := Diff(a, a); got != "" {
		t.Fatalf("Diff of an unframed image with itself = %q, want \"\"", got)
	}
}

func image(fn func(*W)) []byte {
	w := NewW()
	fn(w)
	return w.Bytes()
}

func TestDiff(t *testing.T) {
	state := func(leaf uint64) []byte {
		return image(func(w *W) {
			w.Section("sim", func(w *W) { w.U64(7) })
			w.Section("phy", func(w *W) {
				w.Section("cell0", func(w *W) { w.U64(1) })
				w.Section("cell1", func(w *W) { w.U64(leaf) })
			})
		})
	}
	base := state(2)
	for _, tc := range []struct {
		name string
		a, b []byte
		want string
	}{
		{"equal", base, state(2), ""},
		{"both-empty", nil, nil, ""},
		{"nested", base, state(3), "/phy/cell1/<bytes>"},
		{"section-name", base, image(func(w *W) {
			w.Section("sim", func(w *W) { w.U64(7) })
			w.Section("l2", func(w *W) {})
		}), "/<phy|l2>"},
		{"section-count", base, base[:len(image(func(w *W) {
			w.Section("sim", func(w *W) { w.U64(7) })
		}))], "/<section-count>"},
		{"unframed-body", image(func(w *W) {
			w.Section("ue", func(w *W) { w.U32(1) })
		}), image(func(w *W) {
			w.Section("ue", func(w *W) { w.U32(2) })
		}), "/ue/<bytes>"},
		{"truncated", base, base[:len(base)-1], "/<bytes>"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := Diff(tc.a, tc.b); got != tc.want {
				t.Fatalf("Diff = %q, want %q", got, tc.want)
			}
		})
	}
}

func TestReaderRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []byte
		read func(*R)
		want error // nil: any error
	}{
		{"truncated-u32", []byte{0, 0, 1}, func(r *R) { r.U32() }, ErrTruncated},
		{"truncated-u64", make([]byte, 7), func(r *R) { r.U64() }, ErrTruncated},
		{"truncated-prefix", []byte{0, 0}, func(r *R) { r.Str() }, ErrTruncated},
		{"oversized-str", []byte{0, 0, 0, 2, 'a'}, func(r *R) { r.Str() }, ErrOversized},
		{"oversized-blob", []byte{0xff, 0xff, 0xff, 0xff}, func(r *R) { r.Blob() }, ErrOversized},
		{"oversized-section", []byte{0, 0, 0, 0, 0, 0, 0, 1}, func(r *R) { r.Section() }, ErrOversized},
		{"bool-byte", []byte{2}, func(r *R) { r.Bool() }, nil},
		{"trailing", []byte{1, 2}, func(r *R) { r.U8() }, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewR(tc.in)
			tc.read(r)
			err := r.Close()
			if err == nil {
				t.Fatal("reader accepted a non-canonical input")
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			// The first failure latches: later reads return zero values.
			if r.U64() != 0 || r.Str() != "" || r.Blob() != nil || r.More() {
				t.Fatal("reads after a latched error returned data")
			}
		})
	}
}

// TestRoundTrip writes one value through every W method and reads it back
// through the matching R method, consuming the input exactly.
func TestRoundTrip(t *testing.T) {
	w := NewW()
	w.U8(0xab)
	w.Bool(true)
	w.Bool(false)
	w.U16(0xbeef)
	w.U32(0xdeadbeef)
	w.U64(math.MaxUint64 - 1)
	w.I64(-42)
	w.F64(-0.5)
	w.Str("slot")
	w.Blob([]byte{1, 2, 3})
	w.Blob(nil)
	w.Section("outer", func(w *W) {
		w.Section("inner", func(w *W) { w.Str(strings.Repeat("x", 300)) })
	})
	if w.Len() != len(w.Bytes()) {
		t.Fatalf("Len %d, Bytes %d", w.Len(), len(w.Bytes()))
	}

	r := NewR(w.Bytes())
	if v := r.U8(); v != 0xab {
		t.Fatalf("U8 = %#x", v)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool round trip")
	}
	if v := r.U16(); v != 0xbeef {
		t.Fatalf("U16 = %#x", v)
	}
	if v := r.U32(); v != 0xdeadbeef {
		t.Fatalf("U32 = %#x", v)
	}
	if v := r.U64(); v != math.MaxUint64-1 {
		t.Fatalf("U64 = %#x", v)
	}
	if v := r.I64(); v != -42 {
		t.Fatalf("I64 = %d", v)
	}
	if v := r.F64(); v != -0.5 {
		t.Fatalf("F64 = %v", v)
	}
	if v := r.Str(); v != "slot" {
		t.Fatalf("Str = %q", v)
	}
	if v := r.Blob(); string(v) != "\x01\x02\x03" {
		t.Fatalf("Blob = %v", v)
	}
	if v := r.Blob(); len(v) != 0 {
		t.Fatalf("empty Blob = %v", v)
	}
	name, outer := r.Section()
	if name != "outer" {
		t.Fatalf("Section name %q", name)
	}
	name, inner := outer.Section()
	if name != "inner" || inner.Str() != strings.Repeat("x", 300) {
		t.Fatalf("nested Section %q", name)
	}
	for _, rr := range []*R{inner, outer, r} {
		if rr.More() || rr.Remaining() != 0 {
			t.Fatal("reader has unread bytes")
		}
		if err := rr.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
