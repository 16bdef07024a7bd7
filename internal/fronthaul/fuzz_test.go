package fronthaul

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// FuzzDecodePacket feeds arbitrary bytes to the eCPRI packet decoder: it
// must never panic, DecodeFrom into a packet still holding another frame's
// fields must agree with Decode (same error, and on success equal fields,
// so no stale field survives), and any packet it accepts must survive a
// serialize/decode round trip unchanged (decode is a left inverse of
// serialize on the decoder's image).
func FuzzDecodePacket(f *testing.F) {
	iq, _ := NewUplinkIQ(3, 7, SlotID{Frame: 1, Subframe: 2, Slot: 1}, 0, 4,
		make([]complex128, 24), 9)
	iq.Aux = []byte("aux-bytes")
	f.Add(encode(iq))
	ctl := NewControl(1, 0, Downlink, SlotID{}, 2)
	ctl.Payload = EncodeSections([]Section{{UEID: 5, NumPRB: 4, ModBits: 2, TBBytes: 100}})
	f.Add(encode(ctl))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x10}, 21))

	stale := []byte("stale-payload")
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		into := Packet{
			Version: 9, Type: 7, EAxC: 0xBEEF, Seq: 0xAA, Dir: Downlink,
			Slot: SlotID{Frame: 3, Subframe: 4, Slot: 1}, Section: 11,
			StartPRB: 12, NumPRB: 13, MantissaBits: 14,
			Payload: stale, Aux: stale,
		}
		if errInto := into.DecodeFrom(data); errInto != err {
			t.Fatalf("DecodeFrom error %v, Decode error %v", errInto, err)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(into, *p) {
			t.Fatalf("DecodeFrom into a used packet differs from Decode:\n  into   %#v\n  decode %#v", into, *p)
		}
		// Peek helpers must agree with the full decode.
		if slot, dir, ok := PeekSlot(data); !ok || slot != p.Slot || dir != p.Dir {
			t.Fatalf("PeekSlot = %v/%v/%v, decode = %v/%v", slot, dir, ok, p.Slot, p.Dir)
		}
		if eaxc, ok := PeekEAxC(data); !ok || eaxc != p.EAxC {
			t.Fatalf("PeekEAxC = %d/%v, decode = %d", eaxc, ok, p.EAxC)
		}
		if mt, ok := PeekType(data); !ok || mt != p.Type {
			t.Fatalf("PeekType = %v/%v, decode = %v", mt, ok, p.Type)
		}
		wire := encode(p)
		q, err := Decode(wire)
		if err != nil {
			t.Fatalf("re-decode of serialized packet failed: %v", err)
		}
		// Compare by re-serialization: Serialize is deterministic, so byte
		// equality means full field equality including payload and aux.
		if !bytes.Equal(wire, encode(q)) {
			t.Fatalf("round trip changed packet:\n  first  %#v\n  second %#v", p, q)
		}
	})
}

// FuzzDecodeSections checks the C-plane section-list codec: no panic on
// arbitrary bytes, decode∘encode∘decode == decode, and AppendDecodeSections
// keeps a non-empty prefix and appends exactly what DecodeSections returns
// (nothing, on error).
func FuzzDecodeSections(f *testing.F) {
	f.Add(EncodeSections(nil))
	f.Add(EncodeSections([]Section{
		{UEID: 1, Dir: Uplink, StartPRB: 0, NumPRB: 6, ModBits: 4, HARQID: 2, Rv: 1, NewData: true, TBBytes: 320, GrantSlot: 99},
		{UEID: 2, Dir: Downlink, NumPRB: 1, ModBits: 2, TBBytes: 64},
	}))
	f.Add([]byte{0xFF, 0xFF})

	prefix := []Section{{UEID: 0xFFFF, Dir: Downlink, NumPRB: 273, GrantSlot: 1 << 40}}
	f.Fuzz(func(t *testing.T, data []byte) {
		secs, err := DecodeSections(data)
		dst := append(make([]Section, 0, 2), prefix...)
		appended, errApp := AppendDecodeSections(dst, data)
		if errApp != err {
			t.Fatalf("AppendDecodeSections error %v, DecodeSections error %v", errApp, err)
		}
		if len(appended) != len(prefix)+len(secs) || !reflect.DeepEqual(appended[:len(prefix)], prefix) {
			t.Fatalf("AppendDecodeSections returned %#v, want prefix %#v then %d sections", appended, prefix, len(secs))
		}
		if len(secs) > 0 && !reflect.DeepEqual(appended[len(prefix):], secs) {
			t.Fatalf("AppendDecodeSections appended %#v, DecodeSections returned %#v", appended[len(prefix):], secs)
		}
		if err != nil {
			return
		}
		again, err := DecodeSections(EncodeSections(secs))
		if err != nil {
			t.Fatalf("re-decode of encoded sections failed: %v", err)
		}
		if len(secs) == 0 && len(again) == 0 {
			return
		}
		if !reflect.DeepEqual(secs, again) {
			t.Fatalf("round trip changed sections:\n  first  %#v\n  second %#v", secs, again)
		}
	})
}

// FuzzDecompressBFP throws arbitrary bytes at the BFP decompressor across
// mantissa widths: no panic, outputs bounded to the nominal dynamic range,
// and recompression of the (already quantized) samples stays within one
// quantization step.
func FuzzDecompressBFP(f *testing.F) {
	good, _ := CompressBFP(make([]complex128, 12), 9)
	f.Add(good, uint8(9))
	f.Add([]byte{0x0F, 1, 2, 3}, uint8(2))
	f.Add([]byte{}, uint8(16))

	f.Fuzz(func(t *testing.T, data []byte, mant uint8) {
		bits := int(mant%15) + 2 // [2,16]
		iq, err := DecompressBFP(data, bits)
		if err != nil {
			return
		}
		for _, s := range iq {
			if math.IsNaN(real(s)) || math.IsInf(real(s), 0) ||
				math.IsNaN(imag(s)) || math.IsInf(imag(s), 0) {
				t.Fatalf("non-finite sample %v", s)
			}
			if math.Abs(real(s)) > 8 || math.Abs(imag(s)) > 8 {
				t.Fatalf("sample %v outside nominal [-8,8] range", s)
			}
		}
		re, err := CompressBFP(iq, bits)
		if err != nil {
			t.Fatalf("recompression of decompressed samples failed: %v", err)
		}
		iq2, err := DecompressBFP(re, bits)
		if err != nil || len(iq2) != len(iq) {
			t.Fatalf("second decompression failed: %v (%d vs %d samples)", err, len(iq2), len(iq))
		}
		// One full quantization step at the largest exponent bounds the
		// drift; BFP is lossy so exact byte stability is not promised.
		tol := 8.0/(float64(int(1)<<(bits-1))-1) + 1e-12
		for i := range iq {
			if math.Abs(real(iq[i])-real(iq2[i])) > tol || math.Abs(imag(iq[i])-imag(iq2[i])) > tol {
				t.Fatalf("sample %d drifted beyond one step (%g): %v -> %v", i, tol, iq[i], iq2[i])
			}
		}
	})
}

// FuzzCompressBFP drives the compressor with arbitrary sample values and
// checks the decompressed result stays within half a quantization step of
// the (saturated) input.
func FuzzCompressBFP(f *testing.F) {
	f.Add([]byte{0, 64, 128, 192, 255, 1, 2, 3}, uint8(9))
	f.Add(bytes.Repeat([]byte{0xAB}, 48), uint8(5))

	f.Fuzz(func(t *testing.T, data []byte, mant uint8) {
		bits := int(mant%15) + 2
		n := len(data) / 2 / 12 * 12 // complex samples, multiple of 12
		if n == 0 {
			return
		}
		iq := make([]complex128, n)
		for i := range iq {
			re := (float64(data[2*i]) - 128) / 16 // [-8, 7.94]
			im := (float64(data[2*i+1]) - 128) / 16
			iq[i] = complex(re, im)
		}
		enc, err := CompressBFP(iq, bits)
		if err != nil {
			t.Fatalf("compress rejected in-range input: %v", err)
		}
		if want := n / 12 * BFPBlockBytes(bits); len(enc) != want {
			t.Fatalf("encoded %d bytes, want %d", len(enc), want)
		}
		dec, err := DecompressBFP(enc, bits)
		if err != nil || len(dec) != n {
			t.Fatalf("decompress failed: %v", err)
		}
		tol := 8.0/(float64(int(1)<<(bits-1))-1) + 1e-12
		for i := range iq {
			if math.Abs(real(iq[i])-real(dec[i])) > tol || math.Abs(imag(iq[i])-imag(dec[i])) > tol {
				t.Fatalf("sample %d error beyond %g: %v -> %v", i, tol, iq[i], dec[i])
			}
		}
	})
}
