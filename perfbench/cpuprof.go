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

// layers are the simulator's packages, named after dvc/internal/<pkg>;
// "partition" is dvc/internal/sim/partition.
var layers = []string{"sim", "partition", "netsim", "tcp", "guest", "mpi", "hpcc", "vm",
	"payload", "storage", "core", "rm", "phys", "clock", "obs"}

// cpuBuckets are the cpu.* and alloc.* shares: every layer, then GC time
// that no layer's frame is on the stack of, then everything else.
var cpuBuckets = append(append([]string(nil), layers...), "runtime_gc", "other")

const internalPrefix = "dvc/internal/"

// layerOf maps a function name to its layer. ok is false for a function
// outside dvc/internal; a dvc/internal package that is not a layer (the
// experiments, workload or metrics packages) maps to "other".
func layerOf(fn string) (layer string, ok bool) {
	if !strings.HasPrefix(fn, internalPrefix) {
		return "", false
	}
	pkg := fn[len(internalPrefix):]
	if i := strings.IndexByte(pkg, '.'); i >= 0 {
		pkg = pkg[:i]
	}
	if pkg == "sim/partition" {
		return "partition", true
	}
	for _, l := range layers {
		if pkg == l {
			return l, true
		}
	}
	return "other", true
}

// gcRoots are goroutine entry points of the collector's own workers.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// attribute charges one stack (leaf first) to a bucket: the innermost
// dvc/internal frame's layer, else runtime_gc when a collector worker
// runs it, else other. So mallocgc, map and gob time count against the
// layer that called them.
func attribute(stack []string) string {
	for _, fn := range stack {
		if l, ok := layerOf(fn); ok {
			return l
		}
	}
	for _, fn := range stack {
		for _, g := range gcRoots {
			if fn == g {
				return "runtime_gc"
			}
		}
	}
	return "other"
}

// profileShares reads a gzipped pprof profile and returns each bucket's
// share of the named sample value ("cpu" for a CPU profile,
// "alloc_objects" for the allocs profile), plus the sample count. Shares
// sum to 1.
func profileShares(data []byte, valueType string) (map[string]float64, int, error) {
	p, err := parseProfile(data)
	if err != nil {
		return nil, 0, err
	}
	vi := -1
	for i, t := range p.sampleTypes {
		if t == valueType {
			vi = i
		}
	}
	if vi < 0 {
		return nil, 0, fmt.Errorf("perfbench: profile has no %q values (types %v)", valueType, p.sampleTypes)
	}
	shares := map[string]float64{}
	for _, b := range cpuBuckets {
		shares[b] = 0
	}
	var total float64
	for _, s := range p.samples {
		if vi >= len(s.values) {
			return nil, 0, fmt.Errorf("perfbench: profile sample lacks the %q value", valueType)
		}
		v := float64(s.values[vi])
		shares[attribute(p.stack(s.locs))] += v
		total += v
	}
	if total > 0 {
		for b := range shares {
			shares[b] /= total
		}
	}
	return shares, len(p.samples), nil
}

// profile is the part of a pprof profile the attribution needs.
type profile struct {
	sampleTypes []string
	samples     []pSample
	locLines    map[uint64][]uint64 // location id -> function ids, innermost first
	funcName    map[uint64]string
}

type pSample struct {
	locs   []uint64 // leaf first
	values []int64
}

// stack returns a sample's function names, innermost first (inlined
// frames of one location in their recorded order, innermost first).
func (p *profile) stack(locs []uint64) []string {
	var out []string
	for _, l := range locs {
		for _, f := range p.locLines[l] {
			out = append(out, p.funcName[f])
		}
	}
	return out
}

// parseProfile decodes a (gzipped) profile.proto message. It reads only
// sample_type (1), sample (2), location (4), function (5) and
// string_table (6), following github.com/google/pprof/proto/profile.proto.
func parseProfile(data []byte) (*profile, error) {
	if len(data) > 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("perfbench: profile gzip: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("perfbench: profile gzip: %w", err)
		}
	}
	var (
		strs      []string
		typeIdx   []int64
		funcNameI = map[uint64]int64{}
		p         = &profile{locLines: map[uint64][]uint64{}, funcName: map[uint64]string{}}
	)
	err := fields(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // ValueType{type=1, unit=2}
			return fields(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2: // Sample{location_id=1, value=2}
			var s pSample
			err := fields(b, func(n, w int, v uint64, bb []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, w, v, bb)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, w, v, bb); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location{id=1, line=4{function_id=1}}
			var id uint64
			var fns []uint64
			err := fields(b, func(n, _ int, v uint64, bb []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return fields(bb, func(ln, _ int, lv uint64, _ []byte) error {
						if ln == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = fns
			return err
		case 5: // Function{id=1, name=2}
			var id uint64
			var name int64
			err := fields(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNameI[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) (string, error) {
		if i < 0 || i >= int64(len(strs)) {
			return "", fmt.Errorf("perfbench: profile string index %d out of range", i)
		}
		return strs[i], nil
	}
	for _, i := range typeIdx {
		s, err := str(i)
		if err != nil {
			return nil, err
		}
		p.sampleTypes = append(p.sampleTypes, s)
	}
	for id, i := range funcNameI {
		s, err := str(i)
		if err != nil {
			return nil, err
		}
		p.funcName[id] = s
	}
	return p, nil
}

// appendVarints appends a repeated varint field, packed (wire type 2) or
// not (wire type 0).
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("perfbench: bad packed varint in profile")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// fields walks the top-level fields of a protobuf message, calling fn with
// the field number, wire type, and the varint value or the bytes.
func fields(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("perfbench: bad field key in profile")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("perfbench: bad varint in profile")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("perfbench: short fixed64 in profile")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("perfbench: bad length in profile")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("perfbench: short fixed32 in profile")
			}
			b = b[4:]
		default:
			return fmt.Errorf("perfbench: unsupported wire type %d in profile", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
