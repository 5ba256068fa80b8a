package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// The layers that have no seam on a workload's path are measured from a CPU
// profile of the traced run. This file decodes the gzipped protobuf that
// runtime/pprof writes (only the fields needed: samples, their labels and
// locations, functions, strings) and attributes each sample to a layer.

const modulePrefix = "github.com/mobilebandwidth/swiftest"

// profSample is one decoded CPU sample: its weight, its stack as function
// names leaf first, and its pprof labels.
type profSample struct {
	weight int64
	stack  []string
	labels map[string]string
}

// cpuProfile records a CPU profile of fn into memory and decodes it.
func cpuProfile(fn func()) ([]profSample, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	fn()
	pprof.StopCPUProfile()
	return decodeProfile(buf.Bytes())
}

// pbField is one protobuf field: its number, wire type and payload (a
// varint value, or the bytes of a length-delimited field).
type pbField struct {
	num  int
	wire int
	v    uint64
	b    []byte
}

func pbFields(b []byte, fn func(pbField) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("pprof: short fixed64")
			}
			f.v = binary.LittleEndian.Uint64(b)
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("pprof: bad length")
			}
			f.b = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("pprof: short fixed32")
			}
			f.v = uint64(binary.LittleEndian.Uint32(b))
			b = b[4:]
		default:
			return fmt.Errorf("pprof: wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// varints appends a repeated integer field, packed or not.
func varints(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	b := f.b
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("pprof: bad packed varint")
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

func decodeProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type rawSample struct {
		locs, values []uint64
		labels       [][2]uint64 // key, str string-table indexes
	}
	var (
		samples []rawSample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id → function ids, leaf first
		fnName  = map[uint64]uint64{}   // function id → name string index
	)
	err = pbFields(raw, func(f pbField) error {
		switch f.num {
		case 2: // Sample
			var s rawSample
			err := pbFields(f.b, func(g pbField) error {
				var err error
				switch g.num {
				case 1:
					s.locs, err = varints(s.locs, g)
				case 2:
					s.values, err = varints(s.values, g)
				case 3:
					var kv [2]uint64
					err = pbFields(g.b, func(h pbField) error {
						if h.num == 1 || h.num == 2 {
							kv[h.num-1] = h.v
						}
						return nil
					})
					s.labels = append(s.labels, kv)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbFields(f.b, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 4: // Line; the first is the innermost inlined frame
					return pbFields(g.b, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := pbFields(f.b, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = g.v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(f.b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := profSample{weight: int64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				ps.stack = append(ps.stack, str(fnName[fn]))
			}
		}
		for _, kv := range s.labels {
			if ps.labels == nil {
				ps.labels = map[string]string{}
			}
			ps.labels[str(kv[0])] = str(kv[1])
		}
		out = append(out, ps)
	}
	return out, nil
}

// funcPackage is the import path of a symbol name such as
// "github.com/x/y/internal/linksim.(*Link).Advance" or "runtime.mallocgc".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// repoLayer names the repository layer a package belongs to: the last path
// element of an internal package ("linksim", "batchio"), "swiftest" for the
// root package, and "" for anything outside the module.
func repoLayer(pkg string) string {
	if pkg == modulePrefix {
		return "swiftest"
	}
	rest, ok := strings.CutPrefix(pkg, modulePrefix+"/")
	if !ok {
		return ""
	}
	return rest[strings.LastIndexByte(rest, '/')+1:]
}

var syscallPackages = map[string]bool{
	"syscall":                  true,
	"internal/runtime/syscall": true,
	"runtime/internal/syscall": true,
}

// cpuShares attributes profile samples to layers. A sample counts towards
// the repository layer of its innermost repository frame, so a layer's
// share includes the standard-library code it calls; it counts towards
// "runtime" or "syscall" by its leaf frame, and towards a pprof "role"
// label when it carries one. Every share is of all samples.
func cpuShares(samples []profSample) (shares map[string]float64, total int64) {
	w := map[string]int64{}
	for _, s := range samples {
		total += s.weight
		if len(s.stack) > 0 {
			switch leaf := funcPackage(s.stack[0]); {
			case leaf == "runtime":
				w["runtime"] += s.weight
			case syscallPackages[leaf]:
				w["syscall"] += s.weight
			}
		}
		for _, fn := range s.stack {
			if layer := repoLayer(funcPackage(fn)); layer != "" {
				w[layer] += s.weight
				break
			}
		}
		if role := s.labels["role"]; role != "" {
			w["role."+role] += s.weight
		}
	}
	shares = map[string]float64{}
	for k, v := range w {
		shares[k] = ratio(float64(v), float64(total))
	}
	return shares, total
}
