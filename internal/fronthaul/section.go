package fronthaul

import (
	"encoding/binary"
	"errors"
	"slices"
)

// Section is one C-plane section descriptor: it tells the RU (and, over
// the air, the UE) which resources a UE occupies in the slot and how the
// transport block is protected. Downlink C-plane packets carry one section
// per scheduled UE; the UL grant sections ride on downlink C-plane packets
// the way PDCCH grants do.
type Section struct {
	UEID     uint16
	Dir      Direction // resources granted for UL or carrying DL data
	StartPRB uint16
	NumPRB   uint16
	ModBits  uint8 // modulation order (bits/symbol)
	HARQID   uint8
	Rv       uint8
	NewData  bool
	TBBytes  uint32
	// GrantSlot is the absolute slot the grant applies to (UL grants are
	// issued ahead of time; for DL data sections it equals the packet's
	// slot).
	GrantSlot uint64
}

const sectionWire = 2 + 1 + 2 + 2 + 1 + 1 + 1 + 1 + 4 + 8

// ErrBadSectionList reports a malformed C-plane section payload.
var ErrBadSectionList = errors.New("fronthaul: malformed section list")

// SectionsSize returns the encoded C-plane payload size for n sections.
func SectionsSize(n int) int { return 2 + n*sectionWire }

// EncodeSections serializes sections as a C-plane payload.
func EncodeSections(sections []Section) []byte {
	return AppendSections(make([]byte, 0, SectionsSize(len(sections))), sections)
}

// AppendSections is EncodeSections appending to dst, so the PHY's per-slot
// heartbeat path can build payloads in recycled buffers.
func AppendSections(dst []byte, sections []Section) []byte {
	var n [2]byte
	binary.BigEndian.PutUint16(n[:], uint16(len(sections)))
	out := append(dst, n[:]...)
	for _, s := range sections {
		var buf [sectionWire]byte
		binary.BigEndian.PutUint16(buf[0:2], s.UEID)
		buf[2] = uint8(s.Dir)
		binary.BigEndian.PutUint16(buf[3:5], s.StartPRB)
		binary.BigEndian.PutUint16(buf[5:7], s.NumPRB)
		buf[7] = s.ModBits
		buf[8] = s.HARQID
		buf[9] = s.Rv
		if s.NewData {
			buf[10] = 1
		}
		binary.BigEndian.PutUint32(buf[11:15], s.TBBytes)
		binary.BigEndian.PutUint64(buf[15:23], s.GrantSlot)
		out = append(out, buf[:]...)
	}
	return out
}

// DecodeSections parses a C-plane section payload into a new slice (nil
// for an empty list).
func DecodeSections(data []byte) ([]Section, error) {
	return AppendDecodeSections(nil, data)
}

// AppendDecodeSections is DecodeSections appending to dst, so a receiver
// can parse every slot's list into one reused slice (pass dst[:0]). On
// error it returns dst unchanged.
func AppendDecodeSections(dst []Section, data []byte) ([]Section, error) {
	if len(data) < 2 {
		return dst, ErrBadSectionList
	}
	n := int(binary.BigEndian.Uint16(data[0:2]))
	data = data[2:]
	if len(data) < n*sectionWire {
		return dst, ErrBadSectionList
	}
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		buf := data[i*sectionWire:]
		dst = append(dst, Section{
			UEID:      binary.BigEndian.Uint16(buf[0:2]),
			Dir:       Direction(buf[2]),
			StartPRB:  binary.BigEndian.Uint16(buf[3:5]),
			NumPRB:    binary.BigEndian.Uint16(buf[5:7]),
			ModBits:   buf[7],
			HARQID:    buf[8],
			Rv:        buf[9],
			NewData:   buf[10] == 1,
			TBBytes:   binary.BigEndian.Uint32(buf[11:15]),
			GrantSlot: binary.BigEndian.Uint64(buf[15:23]),
		})
	}
	return dst, nil
}
