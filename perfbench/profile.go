package main

// CPU-profile attribution for the traced run. The standard library can
// write a pprof profile but not read one, so this file decodes the few
// protobuf fields it needs (samples, locations, functions, strings) and
// charges every sample to a layer: the package of the nearest frame on
// the stack, leaf first, that belongs to the simulator. Go runtime work
// (malloc, map operations, write barriers, GC assist) therefore lands on
// the simulator code that caused it. Stacks with no simulator frame are
// background GC ("runtime.gc") or other runtime work ("runtime.other").

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layerOf maps a simulator package (path below the module) to the layer
// it is reported under. Packages not listed report as "other".
var layerOf = map[string]string{
	"internal/sim":            "sim",
	"internal/sched":          "sched",
	"internal/core":           "sched",
	"internal/hv":             "hv",
	"internal/fpga":           "hv",
	"internal/mem":            "hv",
	"internal/hls":            "hv",
	"internal/interconnect":   "hv",
	"internal/trace":          "hv",
	"internal/faults":         "hv",
	"internal/bitstream":      "bitstream",
	"internal/saturate":       "saturate",
	"internal/workload":       "workload",
	"internal/admit":          "admit",
	"internal/health":         "health",
	"internal/cluster":        "cluster",
	"internal/faas":           "faas",
	"internal/fleet":          "fleet",
	"internal/sched/baseline": "sched",
	"internal/sched/fcfs":     "sched",
	"internal/sched/prema":    "sched",
	"internal/sched/rr":       "sched",
	"internal/sched/ckpt":     "sched",
	"internal/sched/energy":   "sched",
}

// profileLayers lists every bucket a profile can report, in print order.
var profileLayers = []string{
	"sim", "sched", "hv", "bitstream", "saturate", "workload", "admit", "health",
	"cluster", "faas", "fleet", "other", "bench", "runtime.gc", "runtime.other",
}

// cumulativeFuncs are functions whose inclusive time the profile
// reports: private fleet steps with no public entry point, and the
// goal-number analysis whose callees sit in other layers.
var cumulativeFuncs = map[string]string{
	"nimblock/internal/fleet.(*Fleet).barrier": "fleet.barrier_s",
	"nimblock/internal/fleet.(*Fleet).route":   "fleet.route_s",
	"nimblock/internal/fleet.(*Fleet).advance": "fleet.advance_s",
	"nimblock/internal/saturate.Analyze":       "saturate.cum_s",
}

// profileSummary is a decoded, attributed CPU profile.
type profileSummary struct {
	// self holds CPU seconds per layer bucket.
	self map[string]float64
	// cum holds inclusive CPU seconds per cumulativeFuncs metric.
	cum map[string]float64
	// samples counts profiling ticks.
	samples int
}

// frameLayer returns the layer bucket of one function name, or "" for
// frames outside the simulator and the benchmark.
func frameLayer(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, "nimblock/")
	if !ok {
		return ""
	}
	// The package path ends at the first dot after the last slash.
	slash := strings.LastIndexByte(rest, '/')
	dot := strings.IndexByte(rest[slash+1:], '.')
	if dot < 0 {
		return "other"
	}
	if l, ok := layerOf[rest[:slash+1+dot]]; ok {
		return l
	}
	return "other"
}

// enclosingFunc strips closure suffixes (".func1", ".gowrap2") so a
// goroutine started inside a function counts toward it.
func enclosingFunc(fn string) string {
	for {
		i := strings.LastIndexByte(fn, '.')
		if i < 0 {
			return fn
		}
		tail := strings.TrimRight(fn[i+1:], "0123456789")
		if tail != "func" && tail != "gowrap" || len(tail) == len(fn)-i-1 {
			return fn
		}
		fn = fn[:i]
	}
}

// attribute decodes a gzipped pprof CPU profile and charges its samples.
func attribute(gz []byte) (*profileSummary, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	funcName := map[uint64]string{}
	for _, f := range p.functions {
		if f.name >= 0 && int(f.name) < len(p.strings) {
			funcName[f.id] = p.strings[f.name]
		}
	}
	// Frames of a location run innermost first: inlined callees, then
	// the function they were inlined into.
	frames := map[uint64][]string{}
	for _, l := range p.locations {
		for _, fid := range l.funcs {
			frames[l.id] = append(frames[l.id], funcName[fid])
		}
	}
	// Go's CPU profile carries [sample count, CPU nanoseconds].
	vi := p.sampleTypes - 1
	if vi < 0 {
		return nil, errors.New("profile: no sample types")
	}
	out := &profileSummary{self: map[string]float64{}, cum: map[string]float64{}}
	for _, s := range p.samples {
		if vi >= len(s.values) {
			continue
		}
		secs := float64(s.values[vi]) / 1e9
		out.samples += int(s.values[0])
		layer, gc := "", false
		seen := map[string]bool{}
		for _, loc := range s.locations {
			for _, fn := range frames[loc] {
				if layer == "" {
					layer = frameLayer(fn)
				}
				if fn == "runtime.gcBgMarkWorker" {
					gc = true
				}
				if m, ok := cumulativeFuncs[enclosingFunc(fn)]; ok && !seen[m] {
					seen[m] = true
					out.cum[m] += secs
				}
			}
		}
		switch {
		case layer != "":
		case gc:
			layer = "runtime.gc"
		default:
			layer = "runtime.other"
		}
		out.self[layer] += secs
	}
	return out, nil
}

// ---- minimal protobuf decoding of profile.proto ----------------------

type pbProfile struct {
	sampleTypes int
	samples     []pbSample
	locations   []pbLocation
	functions   []pbFunction
	strings     []string
}

type pbSample struct {
	locations []uint64
	values    []int64
}

type pbLocation struct {
	id    uint64
	funcs []uint64
}

type pbFunction struct {
	id   uint64
	name int64
}

// pbField is one decoded field: a varint, or a length-delimited payload.
type pbField struct {
	num  int
	wire int
	v    uint64
	b    []byte
}

func pbVarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errors.New("profile: bad varint")
}

// pbFields splits a message into fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n, err = pbVarint(b)
			if err != nil {
				return nil, err
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("profile: truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n, err := pbVarint(b)
			if err != nil {
				return nil, err
			}
			b = b[n:]
			if uint64(len(b)) < l {
				return nil, errors.New("profile: truncated field")
			}
			f.b, b = b[:l], b[l:]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("profile: truncated fixed32")
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// pbUints reads a repeated integer field, packed or not.
func pbUints(f pbField, dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	b := f.b
	for len(b) > 0 {
		v, n, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

func decodeProfile(b []byte) (*pbProfile, error) {
	fields, err := pbFields(b)
	if err != nil {
		return nil, err
	}
	p := &pbProfile{}
	for _, f := range fields {
		switch f.num {
		case 1: // sample_type
			p.sampleTypes++
		case 2: // sample
			sf, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var s pbSample
			for _, x := range sf {
				switch x.num {
				case 1:
					if s.locations, err = pbUints(x, s.locations); err != nil {
						return nil, err
					}
				case 2:
					var vs []uint64
					if vs, err = pbUints(x, nil); err != nil {
						return nil, err
					}
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				}
			}
			p.samples = append(p.samples, s)
		case 4: // location
			lf, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var l pbLocation
			for _, x := range lf {
				switch x.num {
				case 1:
					l.id = x.v
				case 4: // line
					inner, err := pbFields(x.b)
					if err != nil {
						return nil, err
					}
					for _, y := range inner {
						if y.num == 1 {
							l.funcs = append(l.funcs, y.v)
						}
					}
				}
			}
			p.locations = append(p.locations, l)
		case 5: // function
			ff, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var fn pbFunction
			for _, x := range ff {
				switch x.num {
				case 1:
					fn.id = x.v
				case 2:
					fn.name = int64(x.v)
				}
			}
			p.functions = append(p.functions, fn)
		case 6: // string_table
			p.strings = append(p.strings, string(f.b))
		}
	}
	return p, nil
}
