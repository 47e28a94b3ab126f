package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// foldProfile reads a CPU profile as runtime/pprof writes it (a gzipped
// profile.proto) and returns the share of samples per module. Only the
// few fields needed are decoded, so the benchmark needs no dependency
// beyond the standard library.
//
// A sample goes to the package of its leaf function when that is the Go
// runtime (allocation, GC, scheduling: the cost host_allocs_per_op
// predicts); otherwise to the innermost frame that belongs to a module of
// the program or to the benchmark, so container/heap under the machine's
// scheduler counts as "machine".
func foldProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}

	var (
		strs      []string
		funcName  = map[uint64]uint64{}   // function id -> name string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples   [][]uint64              // location ids, leaf first
		sampleVal []int64
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var locs []uint64
			var val int64
			gotVal := false
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					locs = appendVarints(locs, v, b)
				case 2:
					if vals := appendVarints(nil, v, b); len(vals) > 0 && !gotVal {
						val, gotVal = int64(vals[0]), true
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, locs)
			sampleVal = append(sampleVal, val)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	nameOf := func(fn uint64) string {
		if i := funcName[fn]; i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	counts := map[string]float64{}
	var total float64
	for i, locs := range samples {
		module := "runtime"
		leaf := true
	walk:
		for _, loc := range locs {
			for _, fn := range locFuncs[loc] {
				mod, known := moduleOf(nameOf(fn))
				if leaf && mod == "runtime" {
					break walk
				}
				leaf = false
				if known {
					module = mod
					break walk
				}
			}
		}
		counts[module] += float64(sampleVal[i])
		total += float64(sampleVal[i])
	}
	if total == 0 {
		return counts, nil // a window shorter than one profiler tick
	}
	for k := range counts {
		counts[k] /= total
	}
	return counts, nil
}

// hostShareModules are the modules host time is folded into, in report
// order.
var hostShareModules = []string{"machine", "core", "objcache", "streams", "dlm", "runtime", "driver"}

// moduleOf classifies a function by its package; known is false for
// packages that belong to none of the modules (the walk continues to the
// caller).
func moduleOf(fn string) (module string, known bool) {
	switch {
	case strings.HasPrefix(fn, "kmem/internal/machine."):
		return "machine", true
	case strings.HasPrefix(fn, "kmem/internal/objcache."):
		return "objcache", true
	case strings.HasPrefix(fn, "kmem/internal/streams."):
		return "streams", true
	case strings.HasPrefix(fn, "kmem/internal/dlm."):
		return "dlm", true
	case strings.HasPrefix(fn, "kmem/internal/serve."), strings.HasPrefix(fn, "main."):
		return "driver", true
	case strings.HasPrefix(fn, "kmem/internal/"):
		// core and its leaf helpers: blocklist, physmem, arena, allocif,
		// harden, faultpoint.
		return "core", true
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/") || fn == "":
		return "runtime", false
	}
	return "", false
}

// --- a minimal protobuf wire reader ------------------------------------------

// eachField calls f for every field of the message in b: v carries a
// varint or fixed value, p the payload of a length-delimited field.
func eachField(b []byte, f func(num int, v uint64, p []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var p []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			p = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := f(num, v, p); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		if c < 0x80 {
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}

// appendVarints appends a repeated integer field's values: either the
// single unpacked value v or every varint packed in p.
func appendVarints(dst []uint64, v uint64, p []byte) []uint64 {
	if p == nil {
		return append(dst, v)
	}
	for len(p) > 0 {
		x, n := uvarint(p)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		p = p[n:]
	}
	return dst
}
