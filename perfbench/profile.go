package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"runtime/pprof"
	"strings"
)

// cpuBuckets are the layers the traced run's CPU profile is split into.
var cpuBuckets = []string{
	"sim_queue", "barrier", "netmodel", "cdn", "audit", "runner", "setup",
	"tracegen", "analysis", "figures", "plan", "gc", "bench", "other",
}

// profiled runs fn under the CPU profiler and returns the gzipped profile.
func profiled(fn func() error) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	err := fn()
	pprof.StopCPUProfile()
	return buf.Bytes(), err
}

// cpuSplit sums the profile's CPU seconds by layer. A sample whose stack
// runs a garbage-collector routine counts as "gc". Otherwise the sample is
// charged to the innermost frame from this repository, so runtime and
// standard-library work (allocation, sorting, maps) goes to the layer that
// called it; the layer is the frame's package, and for internal/sim and
// internal/cdn also its source file. The benchmark's own frames count as
// "bench"; anything else (scheduler, idle, the profiler) as "other".
func cpuSplit(raw []byte) (map[string]float64, error) {
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		sec := float64(s.nanos) / 1e9
		out["cpu."+bucket(s.stack)+"_s"] += sec
		total += sec
	}
	out["cpu.total_s"] = total
	if total > 0 {
		out["cpu.coverage_frac"] = 1 - out["cpu.other_s"]/total
	}
	return out, nil
}

// modulePath prefixes every function of the repository's packages.
const modulePath = "cdnconsistency/internal/"

// packageBucket maps the repository's packages to layers.
var packageBucket = map[string]string{
	"sim": "sim_queue", "netmodel": "netmodel",
	"cdn": "cdn", "core": "cdn", "consistency": "cdn", "dns": "cdn", "fault": "cdn", "federation": "cdn",
	"audit":    "audit",
	"runner":   "runner",
	"topology": "setup", "overlay": "setup", "geo": "setup", "workload": "setup",
	"tracegen": "tracegen", "trace": "tracegen",
	"analysis": "analysis", "stats": "analysis",
	"figures": "figures",
	"plan":    "plan", "traceimport": "plan",
}

// gcRoots are runtime functions whose presence on a stack marks collector
// work (background marking and sweeping, mutator assists).
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.sweepone", "runtime.markroot", "runtime.gcDrain",
	"runtime.gcMarkDone", "runtime.gcStart", "runtime.GC",
}

type frame struct{ fn, file string }

func bucket(stack []frame) string {
	for _, f := range stack {
		for _, g := range gcRoots {
			if f.fn == g {
				return "gc"
			}
		}
	}
	for _, f := range stack {
		rest, ok := strings.CutPrefix(f.fn, modulePath)
		if !ok {
			continue
		}
		pkg, _, _ := strings.Cut(rest, ".")
		file := path.Base(f.file)
		switch {
		case pkg == "sim" && file == "sharded.go":
			return "barrier"
		case pkg == "cdn" && file == "audit.go":
			return "audit"
		}
		if b, ok := packageBucket[pkg]; ok {
			return b
		}
		return "other"
	}
	for _, f := range stack {
		if strings.HasPrefix(f.fn, "main.") {
			return "bench"
		}
	}
	return "other"
}

// profile is the part of a pprof profile.proto the split needs.
type profile struct {
	samples []sample
}

type sample struct {
	stack []frame // leaf first, inlined frames expanded
	nanos int64
}

// parseProfile decodes a gzipped profile.proto (see
// github.com/google/pprof/proto/profile.proto): samples (field 2), locations
// (4), functions (5) and the string table (6). The CPU time is the last
// sample value.
func parseProfile(raw []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type line struct{ fn uint64 }
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []rawSample
		locs    = map[uint64][]line{}
		funcs   = map[uint64][2]int64{} // name, filename string indexes
		strs    []string
	)
	err = eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var lines []line
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					var l line
					err := eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							l.fn = v
						}
						return nil
					})
					lines = append(lines, l)
					return err
				}
				return nil
			})
			locs[id] = lines
			return err
		case 5:
			var id uint64
			var f [2]int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					f[0] = int64(v)
				case 4:
					f[1] = int64(v)
				}
				return nil
			})
			funcs[id] = f
			return err
		case 6:
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
	p := &profile{}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []frame
		for _, id := range s.locs {
			for _, l := range locs[id] {
				f := funcs[l.fn]
				stack = append(stack, frame{fn: str(f[0]), file: str(f[1])})
			}
		}
		p.samples = append(p.samples, sample{stack: stack, nanos: s.values[len(s.values)-1]})
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, typ := int(key>>3), key&7
		var (
			v    uint64
			body []byte
		)
		switch typ {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
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
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("protobuf wire type %d", typ)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field given either unpacked (one
// varint v) or packed (a run of varints in b).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
