package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profileBuckets are the names CPU samples are attributed to: the
// repository's internal layers, then Go map operations, garbage
// collection, JSON, SHA-256, the rest of the runtime, and everything
// else.
var profileBuckets = []string{
	"trace", "attack", "cpu", "cache", "memctrl", "dram", "mitigation", "sim",
	"faultmodel", "charact", "chips", "ecc", "engine", "core", "store", "serve",
	"go.maps", "gc", "json", "sha256", "runtime", "other",
}

// profileShares decodes a gzipped pprof CPU profile and returns each
// bucket's share of the sampled CPU time, by the package of the leaf
// frame (inlined frames count as their own function), plus the sample
// count.
func profileShares(data []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	weights := map[string]float64{}
	total := 0.0
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				stack = append(stack, p.strings[p.funcNames[fn]])
			}
		}
		w := float64(s.value)
		weights[bucket(stack)] += w
		total += w
	}
	shares := map[string]float64{}
	for _, name := range profileBuckets {
		if total > 0 {
			shares[name] = weights[name] / total
		}
	}
	return shares, len(p.samples), nil
}

// bucket attributes one sample; stack[0] is the leaf.
func bucket(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	leaf := stack[0]
	if rest, ok := strings.CutPrefix(leaf, "repro/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		for _, name := range profileBuckets[:16] {
			if pkg == name {
				return name
			}
		}
		return "other"
	}
	switch {
	case strings.HasPrefix(leaf, "encoding/json."):
		return "json"
	case strings.HasPrefix(leaf, "crypto/sha256.") || strings.HasPrefix(leaf, "crypto/internal/fips140/sha256."):
		return "sha256"
	case strings.HasPrefix(leaf, "internal/runtime/maps.") || strings.HasPrefix(leaf, "runtime.map") ||
		strings.HasPrefix(leaf, "runtime.memhash") || strings.HasPrefix(leaf, "runtime.aeshash") ||
		strings.HasPrefix(leaf, "runtime.strhash"):
		return "go.maps"
	case strings.HasPrefix(leaf, "runtime.") || strings.HasPrefix(leaf, "internal/runtime/"):
		for _, f := range stack {
			if isGCFrame(f) {
				return "gc"
			}
		}
		return "runtime"
	}
	return "other"
}

func isGCFrame(f string) bool {
	for _, p := range []string{
		"runtime.gc", "runtime.markroot", "runtime.scan", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.sweepone", "runtime.wbBuf", "runtime.greyobject", "runtime.(*gcWork)", "runtime.(*sweepLocked)",
	} {
		if strings.HasPrefix(f, p) {
			return true
		}
	}
	return false
}

// profile is the part of the pprof protobuf message the shares need.
type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location id → function ids, innermost first
	funcNames map[uint64]int64    // function id → string table index
	strings   []string
}

type sample struct {
	locs  []uint64
	value int64 // the last sample value: CPU nanoseconds
}

// parseProfile decodes the fields of perftools.profiles.Profile that
// carry samples, locations, functions and the string table.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := fields(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s sample
			var vals []uint64
			err := fields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					return repeated(v, d, &s.locs)
				case 2:
					return repeated(v, d, &vals)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var funcs []uint64
			err := fields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(d, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = funcs
		case 5: // function
			var id uint64
			var name int64
			err := fields(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcNames[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcNames {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, fmt.Errorf("profile: string index %d out of range", idx)
		}
	}
	return p, nil
}

// fields walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = varint(b)
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
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// repeated appends a repeated varint field, packed (data) or not (v).
func repeated(v uint64, data []byte, into *[]uint64) error {
	if data == nil {
		*into = append(*into, v)
		return nil
	}
	for len(data) > 0 {
		x, n := varint(data)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*into = append(*into, x)
		data = data[n:]
	}
	return nil
}

func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
