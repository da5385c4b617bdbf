package main

// A minimal reader for the gzipped protobuf profiles runtime/pprof writes,
// enough to charge CPU samples to layers. Only the fields attribution needs
// are decoded (samples, locations with their inline frames, functions, the
// string table); everything else is skipped by wire type.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuProfile is a decoded CPU profile: one entry per sample, each a stack
// of function names from innermost (leaf, inlined callees first) outward,
// with the sample's weight.
type cpuProfile struct {
	stacks  [][]string
	weights []int64
}

// layerRule charges a sample to metric when a frame's function name starts
// with one of prefixes.
type layerRule struct {
	metric   string
	prefixes []string
}

// attribute charges each sample to the innermost frame that matches a rule,
// so every share is a self share of the layer's entry functions and their
// unmatched callees. Samples with no matching frame go to other. The result
// maps every rule's metric (and other) to its share of the total weight.
func (p *cpuProfile) attribute(rules []layerRule, other string) map[string]float64 {
	out := make(map[string]float64, len(rules)+1)
	for _, r := range rules {
		out[r.metric] = 0
	}
	out[other] = 0
	var total int64
	for i, stack := range p.stacks {
		w := p.weights[i]
		total += w
		out[match(rules, stack, other)] += float64(w)
	}
	if total > 0 {
		for k := range out {
			out[k] /= float64(total)
		}
	}
	return out
}

func match(rules []layerRule, stack []string, other string) string {
	for _, fn := range stack {
		for _, r := range rules {
			for _, p := range r.prefixes {
				if strings.HasPrefix(fn, p) {
					return r.metric
				}
			}
		}
	}
	return other
}

// samples is the profile's total sample weight.
func (p *cpuProfile) samples() int64 {
	var n int64
	for _, w := range p.weights {
		n += w
	}
	return n
}

// parseProfile decodes a (possibly gzipped) pprof protobuf. The weight of a
// sample is its first value, the sample count for CPU profiles.
func parseProfile(data []byte) (*cpuProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type sample struct {
		locs  []uint64
		value int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err := fields(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			var values []uint64
			err := fields(b, func(num int, wire int, v uint64, b []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = appendPacked(s.locs, wire, v, b)
				case 2:
					values, err = appendPacked(values, wire, v, b)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.value = int64(values[0])
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num int, wire int, v uint64, b []byte) error {
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
			var id uint64
			var name int64
			err := fields(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
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
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &cpuProfile{}
	for _, s := range samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcNames[fn]; i >= 0 && i < int64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		p.stacks = append(p.stacks, stack)
		p.weights = append(p.weights, s.value)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// fields walks the protobuf message b, calling fn with each field's number,
// wire type, and either its varint/fixed value or its length-delimited body.
func fields(b []byte, fn func(num, wire int, v uint64, body []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field in either encoding: one
// varint (wire type 0) or a packed run (wire type 2).
func appendPacked(dst []uint64, wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errTruncated
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}
