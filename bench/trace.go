package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
	"time"
)

// span is one timed call from the harness into a layer. Spans of one rep
// share its id; Parent indexes the enclosing span (-1 at the root), giving
// the chain workload > rep > {build, run, verify} > layer call.
type span struct {
	Name    string `json:"name"`
	Rep     int    `json:"rep"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing: the untraced run pays one nil check per span site.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int // stack of open span indexes
	rep    int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// span opens a span and returns the function that closes it.
func (t *tracer) span(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Rep: t.rep, Parent: parent, StartNs: time.Since(t.origin).Nanoseconds()})
	t.open = append(t.open, idx)
	return func() {
		t.spans[idx].EndNs = time.Since(t.origin).Nanoseconds()
		t.open = t.open[:len(t.open)-1]
	}
}

// medianMs is the median duration in ms of the spans called name, 0 when
// the workload never makes that call.
func (t *tracer) medianMs(name string) float64 {
	var ms []float64
	for _, s := range t.spans {
		if s.Name == name {
			ms = append(ms, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	if len(ms) == 0 {
		return 0
	}
	return median(ms)
}

// ---- CPU profile → per-layer shares ----

// stackSample is one CPU-profile sample: its call stack as function names,
// leaf first, and its weight.
type stackSample struct {
	stack []string
	value int64
}

// cpuLayers are the share names the traced run reports, in print order:
// the simulator's packages, then the Go runtime split three ways, then
// everything else (the harness, packages not listed).
var cpuLayers = []string{
	"des", "sim", "service", "queueing", "job", "stats", "dist", "rng",
	"cluster", "graph", "workload", "fault", "netfault", "control", "hybrid", "analytic",
	"runtime.malloc", "runtime.gc", "runtime.other", "other",
}

const modulePrefix = "uqsim/internal/"

// gcFuncs and mallocFuncs mark a stack as garbage collection or allocation
// wherever they appear in it. GC is checked first: an allocation that is
// made to assist the collector is collector time.
var (
	gcFuncs = []string{
		"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain", "runtime.gcStart",
		"runtime.bgsweep", "runtime.bgscavenge", "runtime.gcMarkDone", "runtime.gcMarkTermination",
		"runtime.wbBufFlush", "runtime.gcWriteBarrier", "runtime.(*sweepLocked).sweep", "runtime.sweepone",
	}
	mallocFuncs = []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
		"runtime.growslice",
	}
)

// layerOf attributes one stack to a layer: collector and allocator time to
// the runtime rows, otherwise to the innermost frame inside a simulator
// package, so a layer's share includes the standard-library and runtime
// helpers it calls (math.Log under dist, memmove under des) but not what
// it allocates.
func layerOf(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	for _, marks := range []struct {
		layer string
		funcs []string
	}{{"runtime.gc", gcFuncs}, {"runtime.malloc", mallocFuncs}} {
		for _, fn := range stack {
			for _, m := range marks.funcs {
				if strings.HasPrefix(fn, m) {
					return marks.layer
				}
			}
		}
	}
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, modulePrefix); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			for _, l := range cpuLayers {
				if l == pkg {
					return l
				}
			}
			return "other"
		}
	}
	if strings.HasPrefix(stack[0], "runtime.") {
		return "runtime.other"
	}
	return "other"
}

// layerShares folds samples into a share per cpuLayers entry; the shares
// sum to 1 when there is at least one sample.
func layerShares(samples []stackSample) (shares map[string]float64, total int64) {
	shares = make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = 0
	}
	for _, s := range samples {
		shares[layerOf(s.stack)] += float64(s.value)
		total += s.value
	}
	if total > 0 {
		for l := range shares {
			shares[l] /= float64(total)
		}
	}
	return shares, total
}

// parseProfile decodes the gzip-compressed protobuf that runtime/pprof
// writes (github.com/google/pprof/proto/profile.proto) into stacks of
// function names weighted by the first sample value, the sample count.
// Only the fields that mapping needs are read: Profile.sample(2),
// location(4), function(5), string_table(6); Sample.location_id(1),
// value(2); Location.id(1), line(4); Line.function_id(1);
// Function.id(1), name(2).
func parseProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs  []uint64
		value int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost inline first
		funcNames = map[uint64]uint64{}   // function id → string index
		strs      []string
	)
	err = protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			nvalues := 0
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						if nvalues == 0 {
							s.value = int64(x)
						}
						nvalues++
					}
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
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
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
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
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
			funcNames[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx < uint64(len(strs)) {
					stack = append(stack, strs[idx])
				}
			}
		}
		out = append(out, stackSample{stack: stack, value: s.value})
	}
	return out, nil
}

// protoFields walks one protobuf message, calling fn per field with the
// varint value (wire type 0) or the payload (wire type 2).
func protoFields(b []byte, fn func(field int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := protoVarint(b)
		if n == 0 {
			return fmt.Errorf("truncated field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := protoVarint(b)
			if n == 0 {
				return fmt.Errorf("truncated varint in field %d", field)
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("truncated fixed64 in field %d", field)
			}
			b = b[8:]
		case 2:
			l, n := protoVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("truncated payload in field %d", field)
			}
			if err := fn(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("truncated fixed32 in field %d", field)
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, field)
		}
	}
	return nil
}

func protoVarint(b []byte) (v uint64, n int) {
	for shift := uint(0); n < len(b) && shift < 64; shift += 7 {
		c := b[n]
		n++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, n
		}
	}
	return 0, 0
}

// appendVarints appends a repeated integer field's values: one value when
// it arrived unpacked, the payload's varints when packed.
func appendVarints(dst []uint64, v uint64, payload []byte) []uint64 {
	if payload == nil {
		return append(dst, v)
	}
	for len(payload) > 0 {
		x, n := protoVarint(payload)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		payload = payload[n:]
	}
	return dst
}
