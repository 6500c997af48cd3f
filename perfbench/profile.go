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

// A minimal reader for the gzip-compressed profile.proto that
// runtime/pprof writes: just enough to walk each sample's stack.

// pbField is one protobuf field: its number, wire type and either a
// varint value or a length-delimited payload.
type pbField struct {
	num  int
	wire int
	v    uint64
	b    []byte
}

var errTruncated = errors.New("profile: truncated protobuf")

// pbFields splits a protobuf message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(b)
			if n <= 0 {
				return nil, errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errTruncated
			}
			f.v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errTruncated
			}
			f.b, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errTruncated
			}
			f.v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, fmt.Errorf("profile: wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// uints appends a repeated varint field's values, packed or not.
func (f pbField) uints(dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	b := f.b
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

// stackSample is one sample: its stack as function names, innermost first
// (inlined frames expanded), and its sample count.
type stackSample struct {
	funcs []string
	count int64
}

// parseProfile decodes a CPU profile into its samples.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{}   // function id → string index
	locFuncs := map[uint64][]uint64{} // location id → function ids, innermost first
	var rawSamples [][]pbField
	for _, f := range top {
		switch f.num {
		case 2: // sample
			fs, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			rawSamples = append(rawSamples, fs)
		case 4: // location
			fs, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, lf := range fs {
				switch lf.num {
				case 1:
					id = lf.v
				case 4: // line
					ls, err := pbFields(lf.b)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == 1 {
							fns = append(fns, l.v)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // function
			fs, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, ff := range fs {
				switch ff.num {
				case 1:
					id = ff.v
				case 2:
					name = ff.v
				}
			}
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(f.b))
		}
	}
	out := make([]stackSample, 0, len(rawSamples))
	for _, fs := range rawSamples {
		var locs, vals []uint64
		for _, f := range fs {
			switch f.num {
			case 1:
				if locs, err = f.uints(locs); err != nil {
					return nil, err
				}
			case 2:
				if vals, err = f.uints(vals); err != nil {
					return nil, err
				}
			}
		}
		if len(vals) == 0 {
			return nil, errors.New("profile: sample without values")
		}
		s := stackSample{count: int64(vals[0])}
		for _, l := range locs {
			for _, fn := range locFuncs[l] {
				idx := funcName[fn]
				if idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("profile: string index %d out of range", idx)
				}
				s.funcs = append(s.funcs, strs[idx])
			}
		}
		out = append(out, s)
	}
	return out, nil
}

const internalPrefix = "roborepair/internal/"

// cpuLayers are the modules a CPU sample can be charged to, besides
// "other" (the remaining internal packages) and "runtime" (no internal
// frame on the stack).
var cpuLayers = []string{
	"sim", "radio", "netstack", "node", "geom", "core", "algorithm", "robot",
	"energy", "chaos", "wire", "invariant", "ftdc", "telemetry", "checkpoint",
	"scenario", "metrics",
}

// background marks runtime functions that run on their own: a sample
// under one of them with no internal frame is the runtime's own work
// rather than work the benchmark failed to attribute.
var background = []string{
	"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime._GC", "runtime._System", "runtime._ExternalCode",
	"runtime.gcStart", "runtime.forcegchelper", "runtime.runfinq",
}

// layerOf charges a stack to the innermost roborepair/internal package on
// it, or to "runtime" when there is none. unattributed reports a runtime
// sample that no background runtime function explains either.
func layerOf(funcs []string) (layer string, unattributed bool) {
	for _, fn := range funcs {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			pkg := rest
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			for _, l := range cpuLayers {
				if l == pkg {
					return l, false
				}
			}
			return "other", false
		}
	}
	for _, fn := range funcs {
		for _, bg := range background {
			if fn == bg {
				return "runtime", false
			}
		}
	}
	return "runtime", true
}

// cpuShares accumulates samples per layer across profiles.
type cpuShares struct {
	byLayer      map[string]int64
	total        int64
	unattributed int64
}

func (c *cpuShares) add(gz []byte) error {
	samples, err := parseProfile(gz)
	if err != nil {
		return err
	}
	if c.byLayer == nil {
		c.byLayer = map[string]int64{}
	}
	for _, s := range samples {
		l, un := layerOf(s.funcs)
		c.byLayer[l] += s.count
		c.total += s.count
		if un {
			c.unattributed += s.count
		}
	}
	return nil
}

func (c *cpuShares) share(layer string) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.byLayer[layer]) / float64(c.total)
}
