package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the simulator layers CPU samples are attributed to, in report
// order; layerOf maps a function's package path to one of them.
var layers = []string{"event", "timing", "emu", "mem", "core", "workloads", "runtime", "other"}

var layerPrefixes = []struct{ prefix, layer string }{
	{"photon/internal/sim/event", "event"},
	{"photon/internal/sim/timing", "timing"},
	{"photon/internal/sim/emu", "emu"},
	{"photon/internal/sim/isa", "emu"},
	{"photon/internal/sim/mem", "mem"},
	{"photon/internal/core", "core"},
	{"photon/internal/stats", "core"},
	{"photon/internal/workloads", "workloads"},
	{"runtime", "runtime"},
	{"internal/runtime", "runtime"},
}

func layerOf(pkg string) string {
	for _, p := range layerPrefixes {
		if pkg == p.prefix || strings.HasPrefix(pkg, p.prefix+"/") {
			return p.layer
		}
	}
	return "other"
}

// packageOf returns the package path of a symbol name such as
// "photon/internal/sim/emu.(*Warp).Step".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// leafLayers decodes a gzip-compressed pprof CPU profile and counts its
// samples by the layer of each sample's leaf (innermost, after inlining)
// function. It reads only the fields it needs from the profile.proto wire
// format.
func leafLayers(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		count int64
	}
	var (
		samples  []sample
		locLeaf  = map[uint64]uint64{} // location id → innermost function id
		funcName = map[uint64]int64{}  // function id → string table index
		strs     []string
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			first := true
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id, packed or not; the first is the leaf
					ids, err := varints(v, b)
					if err == nil && first && len(ids) > 0 {
						s.leaf, first = ids[0], false
					}
					return err
				case 2: // value: [samples, cpu ns]
					vals, err := varints(v, b)
					if err == nil && s.count == 0 && len(vals) > 0 {
						s.count = int64(vals[0])
					}
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id, fn uint64
			seenLine := false
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined function
					if seenLine {
						return nil
					}
					seenLine = true
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locLeaf[id] = fn
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make(map[string]int64)
	for _, s := range samples {
		name := ""
		if i, ok := funcName[locLeaf[s.leaf]]; ok && i >= 0 && int(i) < len(strs) {
			name = strs[i]
		}
		out[layerOf(packageOf(name))] += s.count
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// fields walks one protobuf message, calling visit with each field's number
// and either its varint value (v) or its length-delimited bytes (b).
func fields(msg []byte, visit func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1, 5:
			w := 8
			if key&7 == 5 {
				w = 4
			}
			if len(msg) < w {
				return errTruncated
			}
			msg = msg[w:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", key&7)
		}
		if err := visit(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints returns a repeated varint field's values: v itself when it was
// encoded unpacked (b == nil), else the packed values in b.
func varints(v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out, b = append(out, x), b[n:]
	}
	return out, nil
}
