package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
)

// The simulator's cycle loop has no public entry point per stage or
// per subsystem, so the traced run attributes host time inside
// System.Advance from a runtime/pprof CPU profile. The profile is a
// gzipped protocol buffer (github.com/google/pprof/proto/profile.proto);
// the module stays stdlib-only, so the few messages needed are decoded
// here by hand.

// profSample is one decoded stack: function names leaf first, and the
// sample's CPU time in nanoseconds.
type profSample struct {
	funcs []string
	nanos int64
}

// parseProfile decodes a runtime/pprof CPU profile into stacks.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct{ locs, vals []uint64 }
	var (
		samples []sample
		locs    = map[uint64][]uint64{} // location id -> function ids, leaf (inlined) first
		funcs   = map[uint64]uint64{}   // function id -> name string index
		strs    []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					s.vals = appendVarints(s.vals, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
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
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{}
		if len(s.vals) > 1 {
			ps.nanos = int64(s.vals[1]) // [samples/count, cpu/nanoseconds]
		}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if n := funcs[f]; n < uint64(len(strs)) {
					ps.funcs = append(ps.funcs, strs[n])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

var errTruncated = errors.New("perfbench: truncated profile")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return errors.New("perfbench: unsupported protobuf wire type")
		}
		if err := fn(num, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated scalar field that arrives either as
// one varint (v) or packed (b).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// Profile buckets. Stage shares are cumulative (the stage function
// anywhere on the stack) and package shares are by the leaf-most
// simulator frame, both as shares of the samples under System.Advance;
// the GC share is of all samples in the profile.
const advanceFunc = "vbmo/internal/system.(*System).Advance"

var stageFuncs = map[string]string{
	"pipeline.fetch_share":     "vbmo/internal/pipeline.(*Core).fetch",
	"pipeline.dispatch_share":  "vbmo/internal/pipeline.(*Core).dispatch",
	"pipeline.issue_share":     "vbmo/internal/pipeline.(*Core).issue",
	"pipeline.writeback_share": "vbmo/internal/pipeline.(*Core).writeback",
	"pipeline.commit_share":    "vbmo/internal/pipeline.(*Core).commit",
	"pipeline.replay_share":    "vbmo/internal/pipeline.(*Core).replayStage",
}

var packageShares = map[string]string{
	"core.host_share":      "vbmo/internal/core.",
	"lsq.host_share":       "vbmo/internal/lsq.",
	"cache.host_share":     "vbmo/internal/cache.",
	"coherence.host_share": "vbmo/internal/coherence.",
	"bpred.host_share":     "vbmo/internal/bpred.",
}

var gcPrefixes = []string{"runtime.gc", "runtime.markroot", "runtime.scanobject",
	"runtime.bgsweep", "runtime.sweepone", "runtime.bgscavenge", "runtime.greyobject"}

// profileShares buckets the samples into the *_share metrics.
func profileShares(samples []profSample) map[string]float64 {
	var total, advance, gc int64
	hits := map[string]int64{}
	for _, s := range samples {
		total += s.nanos
		if hasPrefix(s.funcs, gcPrefixes...) {
			gc += s.nanos
		}
		if !has(s.funcs, advanceFunc) {
			continue
		}
		advance += s.nanos
		for metric, fn := range stageFuncs {
			if has(s.funcs, fn) {
				hits[metric] += s.nanos
			}
		}
		for _, f := range s.funcs {
			if strings.HasPrefix(f, "vbmo/") {
				for metric, pkg := range packageShares {
					if strings.HasPrefix(f, pkg) {
						hits[metric] += s.nanos
					}
				}
				break
			}
		}
	}
	out := map[string]float64{"runtime.gc_share": ratio(float64(gc), float64(total))}
	for metric := range stageFuncs {
		out[metric] = ratio(float64(hits[metric]), float64(advance))
	}
	for metric := range packageShares {
		out[metric] = ratio(float64(hits[metric]), float64(advance))
	}
	return out
}

func has(funcs []string, name string) bool {
	for _, f := range funcs {
		if f == name {
			return true
		}
	}
	return false
}

func hasPrefix(funcs []string, prefixes ...string) bool {
	for _, f := range funcs {
		for _, p := range prefixes {
			if strings.HasPrefix(f, p) {
				return true
			}
		}
	}
	return false
}
