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

// hostLayers are the simulator packages the CPU profile is rolled up
// into, then "runtime" and "other" for samples no layer is on.
var hostLayers = []string{"engine", "cache", "machine", "pmem", "logbuf", "txheap", "workloads", "recovery", "runtime", "other"}

// layerOfStack charges a sample to the innermost frame that belongs to
// a simulator layer, so runtime helpers a layer calls (copying,
// clearing, allocation, map access) count as that layer's time. A
// stack with no layer on it is runtime work of its own (collection,
// scheduling) or harness code ("other"), by its leaf.
func layerOfStack(frames []string) string {
	for _, f := range frames {
		if l := layerOf(f); l != "runtime" && l != "other" {
			return l
		}
	}
	if len(frames) > 0 {
		return layerOf(frames[0])
	}
	return "other"
}

// layerOf maps a fully qualified Go function name to its host layer.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	const internal = "github.com/persistmem/slpmt/internal/"
	if rest, ok := strings.CutPrefix(pkg, internal); ok {
		top, _, _ := strings.Cut(rest, "/")
		for _, l := range hostLayers {
			if l == top {
				return l
			}
		}
	}
	return "other"
}

// cpuByLayer decodes a runtime/pprof CPU profile and adds each
// sample's count to its layer (see layerOfStack).
func cpuByLayer(profile []byte, into map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs     []string
		funcName = map[uint64]int64{}    // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
		stacks   [][]uint64              // per sample: location ids, leaf first
		counts   []int64
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var locs []uint64
			var vals []uint64
			if err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					locs = appendRepeated(locs, v, b)
				case 2:
					vals = appendRepeated(vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				stacks = append(stacks, locs)
				counts = append(counts, int64(vals[0]))
			}
		case 4: // location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line, innermost inlined frame first
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for i, locs := range stacks {
		var frames []string
		for _, loc := range locs {
			for _, fn := range locFuncs[loc] {
				if si, ok := funcName[fn]; ok && si >= 0 && int(si) < len(strs) {
					frames = append(frames, strs[si])
				}
			}
		}
		into[layerOfStack(frames)] += counts[i]
	}
	return nil
}

// appendRepeated appends a repeated scalar field given either unpacked
// (v) or packed (b).
func appendRepeated(xs []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(xs, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return xs
		}
		xs = append(xs, x)
		b = b[n:]
	}
	return xs
}

var errProto = errors.New("malformed protobuf")

// eachField walks the fields of one protobuf message: varints arrive as
// v, length-delimited fields as b (non-nil, possibly empty).
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(msg) < size {
				return errProto
			}
			msg = msg[size:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if b == nil {
				b = []byte{}
			}
			if err := fn(num, 0, b); err != nil {
				return err
			}
		default:
			return errProto
		}
	}
	return nil
}
