package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile as runtime/pprof writes it: a gzipped profile.proto
// message. Only the fields attribution needs are decoded, so the
// benchmark depends on nothing outside the standard library.

type profSample struct {
	locs   []uint64 // leaf first
	nanos  int64    // CPU time the sample stands for
	labels map[string]string
}

type profile struct {
	samples []profSample
	// frames maps a location id to its function names, innermost
	// inlined frame first.
	frames map[uint64][]string
}

// parseProfile decodes a gzipped CPU profile.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // key, str string-table indices
	}
	var (
		samples   []rawSample
		locLines  = map[uint64][]uint64{}
		funcNames = map[uint64]int64{}
		strs      []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendUints(&s.locs, wire, v, b)
				case 2:
					var u []uint64
					if err := appendUints(&u, wire, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				case 3:
					var key, str int64
					err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
						switch num {
						case 1:
							key = int64(v)
						case 2:
							str = int64(v)
						}
						return nil
					})
					if err != nil {
						return err
					}
					s.labels = append(s.labels, [2]int64{key, str})
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(b, func(num, _ int, v uint64, _ []byte) error {
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
			locLines[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
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
		return nil, err
	}

	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &profile{frames: make(map[uint64][]string, len(locLines))}
	for id, fns := range locLines {
		names := make([]string, len(fns))
		for i, fn := range fns {
			names[i] = str(funcNames[fn])
		}
		p.frames[id] = names
	}
	for _, s := range samples {
		// Sample values of a CPU profile are [count, nanoseconds].
		if len(s.values) < 2 {
			return nil, errors.New("profile: sample without a CPU-time value")
		}
		ps := profSample{locs: s.locs, nanos: s.values[1]}
		if len(s.labels) > 0 {
			ps.labels = make(map[string]string, len(s.labels))
			for _, l := range s.labels {
				ps.labels[str(l[0])] = str(l[1])
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, varint value (wire type 0) or payload (wire type 2).
func eachField(b []byte, fn func(num, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
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
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated uint64 field in either encoding.
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// layerOf maps a repro/internal package to the layer its CPU time is
// charged to. Packages not listed are charged to "other".
var layerOf = map[string]string{
	"sim": "sim", "loadgen": "loadgen", "netmodel": "netmodel",
	"hw": "hw", "sysfs": "hw",
	"services": "services", "kvstore": "kvstore",
	"cluster": "cluster", "faults": "faults",
	"rng": "rng", "workload": "workload", "lsh": "lsh",
	"metrics": "metrics", "stats": "stats",
	"experiment": "harness", "sched": "harness", "envpool": "harness", "figures": "harness",
}

// layers lists every layer attribution can produce, in report order.
var layers = []string{"sim", "loadgen", "netmodel", "hw", "services", "kvstore",
	"cluster", "faults", "rng", "workload", "lsh", "metrics", "stats", "harness", "gc", "other"}

const reproPrefix = "repro/internal/"

// attribution is a profile's CPU time split by layer. The layer
// seconds sum to total exactly; the other fields are views inside it.
type attribution struct {
	total     float64
	layer     map[string]float64
	simPop    float64            // sim self time under wheel/heap pop, cascades excluded
	simCasc   float64            // sim self time under the wheel's cascade splice
	simMin    float64            // sim self time under the queue's minimum-deadline search
	zipfBuild float64            // everything under rng.NewZipf, whatever layer
	zipfLayer map[string]float64 // zipfBuild split by the layer charged
	phase     map[string]float64
}

func newAttribution() *attribution {
	return &attribution{layer: map[string]float64{}, zipfLayer: map[string]float64{}, phase: map[string]float64{}}
}

// add charges every sample of p. Each sample goes to the innermost
// repro/internal frame's layer, so standard-library, runtime, map and
// allocation frames are charged to their nearest repro caller; a sample
// with no repro frame is a garbage-collector worker ("gc") or
// unattributed ("other").
func (a *attribution) add(p *profile) {
	for _, s := range p.samples {
		secs := float64(s.nanos) / 1e9
		a.total += secs
		if ph := s.labels["phase"]; ph != "" {
			a.phase[ph] += secs
		}
		var stack []string
		for _, loc := range s.locs {
			stack = append(stack, p.frames[loc]...)
		}
		layer, inner := "", -1
		for i, fn := range stack {
			if strings.HasPrefix(fn, reproPrefix) {
				pkg := fn[len(reproPrefix):]
				if dot := strings.IndexByte(pkg, '.'); dot >= 0 {
					pkg = pkg[:dot]
				}
				layer, inner = layerOf[pkg], i
				if layer == "" {
					layer = "other"
				}
				break
			}
		}
		if inner < 0 {
			layer = "other"
			if isGC(stack) {
				layer = "gc"
			}
		}
		a.layer[layer] += secs
		if layer == "sim" {
			switch simPart(stack[inner:]) {
			case "pop":
				a.simPop += secs
			case "cascade":
				a.simCasc += secs
			case "min":
				a.simMin += secs
			}
		}
		for _, fn := range stack {
			if strings.HasPrefix(fn, "repro/internal/rng.NewZipf") {
				a.zipfBuild += secs
				a.zipfLayer[layer] += secs
				break
			}
		}
	}
}

// simPart names the engine step a sim-attributed stack is in, looking
// only at the contiguous sim frames from the innermost one outwards.
func simPart(stack []string) string {
	for _, fn := range stack {
		if !strings.HasPrefix(fn, reproPrefix+"sim.") {
			return ""
		}
		switch {
		case strings.Contains(fn, ".cascadeChain"):
			return "cascade"
		case strings.HasSuffix(fn, ").pop"):
			return "pop"
		case strings.HasSuffix(fn, ").minDeadline"):
			return "min"
		}
	}
	return ""
}

// isGC reports whether a stack with no repro frame belongs to the
// garbage collector's background work.
func isGC(stack []string) bool {
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "runtime.gc"), fn == "runtime.bgsweep",
			fn == "runtime.bgscavenge", fn == "runtime._GC":
			return true
		}
	}
	return false
}
