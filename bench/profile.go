package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers is the fixed attribution list. Every CPU sample lands in exactly
// one, so the shares sum to 100.
var layers = []string{
	"sim.engine", "sim.rng", "dsp", "fec", "fronthaul", "phy", "ue", "ru",
	"l2", "fapi", "orion", "switchsim", "shard", "chaos", "mem", "traffic",
	"runtime.gc", "runtime.malloc", "runtime.other", "other",
}

// pkgLayer maps a product package to its layer.
var pkgLayer = map[string]string{
	"dsp": "dsp", "fec": "fec", "fronthaul": "fronthaul", "phy": "phy",
	"ue": "ue", "ru": "ru",
	"l2": "l2", "harq": "l2", "rlc": "l2",
	"fapi": "fapi", "orion": "orion",
	"switchsim": "switchsim", "netmodel": "switchsim",
	"shard": "shard", "par": "shard",
	"chaos": "chaos", "mem": "mem", "traffic": "traffic",
}

const productPrefix = "slingshot/internal/"

// funcPackage returns the import path of a Go symbol name such as
// "slingshot/internal/fec.(*Code).decodeSoA" or "runtime.mallocgc".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold slashes and dots of their own
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// layerOf attributes one CPU sample, given its stack leaf first, to a
// layer by self time. A leaf in a product package is that package's layer.
// A leaf in the runtime is charged to the runtime — to the collector if
// any frame is collector work (so a mutator's assist and the background
// workers both count as runtime.gc), to the allocator if the stack passes
// through it, and to runtime.other otherwise. A leaf in the rest of the
// standard library (math.Log under RNG.Norm is the largest) has no layer
// of its own and is charged to the nearest product frame above it.
func layerOf(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	if isRuntime(funcPackage(stack[0])) {
		malloc := false
		for _, fn := range stack {
			if !isRuntime(funcPackage(fn)) {
				continue
			}
			name := fn[strings.LastIndexByte(fn, '.')+1:]
			switch {
			case strings.HasPrefix(name, "gc"), strings.HasPrefix(name, "bgsweep"), strings.HasPrefix(name, "bgscavenge"),
				strings.Contains(fn, "sweep"), strings.Contains(fn, "scavenge"),
				name == "scanobject", name == "greyobject", strings.HasPrefix(name, "markroot"):
				return "runtime.gc"
			case name == "mallocgc", name == "newobject", name == "newarray",
				name == "makeslice", name == "growslice", strings.HasPrefix(name, "makemap"):
				malloc = true
			}
		}
		if malloc {
			return "runtime.malloc"
		}
		return "runtime.other"
	}
	for _, fn := range stack {
		pkg := funcPackage(fn)
		if isRuntime(pkg) {
			break // a runtime frame above a library leaf: a callback, not a layer
		}
		rest, ok := strings.CutPrefix(pkg, productPrefix)
		if !ok {
			continue
		}
		if rest == "sim" {
			if strings.Contains(fn, "RNG") {
				return "sim.rng"
			}
			return "sim.engine"
		}
		if l, ok := pkgLayer[rest]; ok {
			return l
		}
		return "other"
	}
	return "other"
}

// layerCounts parses a gzipped pprof CPU profile, adds each sample to its
// layer's count and returns how many samples the profile held.
func layerCounts(gz []byte, counts map[string]int64) (int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return 0, err
	}
	stacks, err := parseProfile(raw)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, s := range stacks {
		counts[layerOf(s.funcs)] += s.count
		total += s.count
	}
	return total, nil
}

// ---- a reader for the few fields of profile.proto the attribution needs ----

// stack is one profile sample: function names leaf first, and how many
// times the profiler saw it.
type stack struct {
	funcs []string
	count int64
}

var errProto = errors.New("malformed profile")

// pbuf walks protobuf wire format.
type pbuf struct{ b []byte }

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errProto
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// next reads one field: its number, and either its varint value or its
// length-delimited bytes. Fixed-width fields are skipped as values of 0.
func (p *pbuf) next() (field int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		v, err = p.varint()
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if n > uint64(len(p.b)) {
				return 0, 0, nil, errProto
			}
			data, p.b = p.b[:n], p.b[n:]
		}
	case 1, 5:
		n := 8
		if key&7 == 5 {
			n = 4
		}
		if n > len(p.b) {
			return 0, 0, nil, errProto
		}
		p.b = p.b[n:]
	default:
		err = errProto
	}
	return field, v, data, err
}

// repeated appends a repeated integer field's values, packed or not.
func repeated(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	p := pbuf{data}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return dst, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// parseProfile extracts every sample's stack from an uncompressed
// profile.proto message: Profile{sample=2, location=4, function=5,
// string_table=6}, Sample{location_id=1, value=2}, Location{id=1, line=4},
// Line{function_id=1}, Function{id=1, name=2}.
func parseProfile(raw []byte) ([]stack, error) {
	type sample struct{ locs, values []uint64 }
	var (
		samples  []sample
		locFuncs = map[uint64][]uint64{} // location → function ids, innermost first
		funcName = map[uint64]uint64{}   // function → string index
		strs     []string
	)
	p := pbuf{raw}
	for len(p.b) > 0 {
		field, _, data, err := p.next()
		if err != nil {
			return nil, err
		}
		q := pbuf{data}
		switch field {
		case 2:
			var s sample
			for len(q.b) > 0 {
				f, v, d, err := q.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					s.locs, err = repeated(s.locs, v, d)
				case 2:
					s.values, err = repeated(s.values, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4:
			var id uint64
			var fns []uint64
			for len(q.b) > 0 {
				f, v, d, err := q.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4:
					l := pbuf{d}
					for len(l.b) > 0 {
						lf, lv, _, err := l.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5:
			var id, name uint64
			for len(q.b) > 0 {
				f, v, _, err := q.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(data))
		}
	}

	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := stack{count: int64(s.values[0])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcName[fn]
				if idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("%w: string index %d of %d", errProto, idx, len(strs))
				}
				st.funcs = append(st.funcs, strs[idx])
			}
		}
		out = append(out, st)
	}
	return out, nil
}
