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

// CPU attribution: a CPU profile taken over the traced window is decoded
// here (the pprof protobuf format, read with a minimal wire-format
// decoder since the standard library ships no reader), and each sample is
// charged to the innermost frame that belongs to a layer.

// layerNames are the attribution rows, in report order.
var layerNames = []string{"minion", "ucobs", "utls", "tcp", "utcp", "wire", "rt", "buf", "runtime", "bench"}

// layerPrefixes maps function-name prefixes to layers. Frames of other
// packages (crypto, syscall, net, sync, time) are not layers: a sample
// there is charged to the nearest caller that is.
var layerPrefixes = []struct{ prefix, layer string }{
	{"minion/internal/ucobs.", "ucobs"},
	{"minion/internal/cobs.", "ucobs"},
	{"minion/internal/utls.", "utls"},
	{"minion/internal/tlsrec.", "utls"},
	{"minion/internal/tlshake.", "utls"},
	{"minion/internal/tcp.", "tcp"},
	{"minion/internal/stream.", "tcp"},
	{"minion/internal/utcp.", "utcp"},
	{"minion/internal/udp.", "utcp"},
	{"minion/internal/wire.", "wire"},
	{"minion/internal/rt.", "rt"},
	{"minion/internal/buf.", "buf"},
	{"minion.", "minion"},
	{"main.", "bench"},
	{"minion/perfbench.", "bench"}, // the same package, named as under go test
	// The syscall trampoline lives under internal/runtime but is the
	// calling layer's work; it must not match the runtime row.
	{"internal/runtime/syscall.", ""},
	{"runtime.", "runtime"},
	{"internal/runtime/", "runtime"},
}

// layerOf returns the layer of a function name, or "" if none.
func layerOf(fn string) string {
	for _, p := range layerPrefixes {
		if strings.HasPrefix(fn, p.prefix) {
			return p.layer
		}
	}
	return ""
}

// attribute charges each stack (innermost frame first) to a layer and
// returns the weight per layer; stacks with no layer frame go to "".
func attribute(stacks [][]string, weights []int64) map[string]int64 {
	out := make(map[string]int64)
	for i, st := range stacks {
		layer := ""
		for _, fn := range st {
			if l := layerOf(fn); l != "" {
				layer = l
				break
			}
		}
		out[layer] += weights[i]
	}
	return out
}

// cpuProfile is the part of a decoded profile attribution needs.
type cpuProfile struct {
	stacks  [][]string // innermost frame first, inlined frames expanded
	weights []int64    // first sample value (sample count)
}

// parseProfile decodes a gzip-compressed pprof profile.
func parseProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples  []sample
		locLines = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName = map[uint64]int64{}    // function id -> string index
		strs     []string
	)
	err = pbFields(raw, func(field int, wt int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := pbFields(b, func(f, wt int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = pbAppendUints(s.locs, wt, v, b)
				case 2:
					for _, u := range pbAppendUints(nil, wt, v, b) {
						s.vals = append(s.vals, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f, wt int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(f, wt int, v uint64, b []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(b, func(f, wt int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{}
	for _, s := range samples {
		var st []string
		for _, loc := range s.locs {
			for _, fid := range locLines[loc] {
				if idx := funcName[fid]; idx >= 0 && int(idx) < len(strs) {
					st = append(st, strs[idx])
				}
			}
		}
		w := int64(1)
		if len(s.vals) > 0 {
			w = s.vals[0]
		}
		p.stacks = append(p.stacks, st)
		p.weights = append(p.weights, w)
	}
	return p, nil
}

var errPB = errors.New("profile: malformed protobuf")

// pbFields walks the fields of one protobuf message, calling fn with the
// field number, wire type and either the varint value or the bytes.
func pbFields(b []byte, fn func(field, wt int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errPB
		}
		b = b[n:]
		field, wt := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errPB
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errPB
			}
			v = binary.LittleEndian.Uint64(b)
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errPB
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errPB
			}
			v = uint64(binary.LittleEndian.Uint32(b))
			b = b[4:]
		default:
			return errPB
		}
		if err := fn(field, wt, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbAppendUints appends a repeated varint field's values, packed or not.
func pbAppendUints(dst []uint64, wt int, v uint64, b []byte) []uint64 {
	if wt != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}
