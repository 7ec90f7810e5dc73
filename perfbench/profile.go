package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The simulator's engine runs untyped closures, so the benchmark cannot
// wrap the gpu, uvm or hostos calls made inside one Run. It takes their
// share of host time from a runtime/pprof CPU profile of the traced pass
// instead, grouping each sample's leaf frame by package. The standard
// library has no reader for the profile format (gzipped profile.proto), so
// the few fields needed are decoded here.

// auditStateFunc is the driver method that snapshots state for the
// auditor.
const auditStateFunc = "guvm/internal/uvm.(*Driver).AuditState"

// underAudit reports whether a symbol belongs to the auditor: the audit
// package or the driver's snapshot method.
func underAudit(fn string) bool {
	return fn == auditStateFunc || layerOf(fn) == "audit"
}

// cpuShares returns each layer's share, in percent, of the self-time
// samples of a CPU profile.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		layer := layerOf(p.funcName(s.locs[0], 0))
		// Simulator code that runs on the auditor's behalf (snapshots,
		// digests) is the audit layer's; the runtime's work stays the
		// runtime's.
		if layer != "runtime" && layer != "other" && p.stackHas(s.locs, underAudit) {
			layer = "audit"
		}
		counts[layer] += s.values[0]
		total += s.values[0]
	}
	shares := map[string]float64{}
	if total == 0 {
		return shares, nil
	}
	for l, c := range counts {
		shares[l] = 100 * float64(c) / float64(total)
	}
	return shares, nil
}

// layerOf maps a symbol name such as "guvm/internal/sim.(*Engine).Run" to
// the repository layer it belongs to: the first element below
// guvm/internal ("sim"), with report counted under experiments and the
// sweepd store under sweepd; "runtime" for the Go runtime; "other" for
// the rest of the standard library.
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation brackets may hold dots and slashes
	}
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "guvm":
		return "guvm"
	case strings.HasPrefix(pkg, "guvm/internal/"):
		l, _, _ := strings.Cut(strings.TrimPrefix(pkg, "guvm/internal/"), "/")
		if l == "report" {
			return "experiments"
		}
		return l
	}
	return "other"
}

type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples []profSample
	// locFuncs maps a location id to its function ids, innermost inlined
	// frame first.
	locFuncs map[uint64][]uint64
	funcs    map[uint64]int64 // function id -> string table index
	strs     []string
}

// funcName returns the name of the depth-th function at location loc.
func (p *profile) funcName(loc uint64, depth int) string {
	fs := p.locFuncs[loc]
	if depth >= len(fs) {
		return ""
	}
	i := p.funcs[fs[depth]]
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

func (p *profile) stackHas(locs []uint64, match func(string) bool) bool {
	for _, l := range locs {
		for d := range p.locFuncs[l] {
			if match(p.funcName(l, d)) {
				return true
			}
		}
	}
	return false
}

// Field numbers from profile.proto.
const (
	profSampleField   = 2
	profLocationField = 4
	profFunctionField = 5
	profStringField   = 6

	sampleLocationField = 1
	sampleValueField    = 2

	locationIDField   = 1
	locationLineField = 4
	lineFunctionField = 1

	functionIDField   = 1
	functionNameField = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, msg []byte) error {
		switch num {
		case profSampleField:
			var s profSample
			err := eachField(msg, func(num int, v uint64, sub []byte) error {
				switch num {
				case sampleLocationField:
					return appendVarints(&s.locs, v, sub)
				case sampleValueField:
					var vs []uint64
					if err := appendVarints(&vs, v, sub); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocationField:
			var id uint64
			var fns []uint64
			err := eachField(msg, func(num int, v uint64, sub []byte) error {
				switch num {
				case locationIDField:
					id = v
				case locationLineField:
					return eachField(sub, func(num int, v uint64, _ []byte) error {
						if num == lineFunctionField {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case profFunctionField:
			var id uint64
			var name int64
			err := eachField(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionIDField:
					id = v
				case functionNameField:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case profStringField:
			p.strs = append(p.strs, string(msg))
		}
		return nil
	})
	return p, err
}

// appendVarints appends one repeated integer field occurrence, which the
// encoder writes either as a single varint or as a packed run.
func appendVarints(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := varint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}

// eachField walks the fields of one protobuf message. fn receives the
// value of a varint field, or the bytes of a length-delimited one (nil
// for every other wire type).
func eachField(b []byte, fn func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var msg []byte
		switch key & 7 {
		case 0:
			v, n = varint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			msg = b[n : n+int(l)] // non-nil even when empty: marks wire type 2
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("wire type %d", key&7)
		}
		if err := fn(num, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// varint decodes one base-128 varint, returning it and its length (0 when
// b is truncated, negative on overflow).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b); i++ {
		if i == 10 {
			return 0, -1
		}
		c := b[i]
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
