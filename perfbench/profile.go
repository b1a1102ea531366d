package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"strings"
)

// modulePrefix marks the frames that belong to one of the repository's
// layers; the module is the path element after it.
const modulePrefix = "repro/internal/"

// shareModules are the modules whose CPU and allocation shares the traced
// run reports, in output order.
var shareModules = []string{
	"cpu", "cache", "memctrl", "nvm", "recovery", "logfmt", "crashcampaign", "litmus",
	"core", "workload", "logging", "isa", "heap", "pstruct", "engine", "serve", "resultstore", "ledger",
}

// moduleOf returns the module of a fully qualified function name, or "".
func moduleOf(fn string) string {
	if !strings.HasPrefix(fn, modulePrefix) {
		return ""
	}
	rest := fn[len(modulePrefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

// isBackgroundGC reports whether a frame belongs to the runtime's own
// collector goroutines, as opposed to GC assists charged to a mutator.
func isBackgroundGC(fn string) bool {
	return fn == "runtime.gcBgMarkWorker" || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge"
}

// buckets accumulates weights per module. A sample goes to the innermost
// repro/internal frame on its stack, so runtime work (memclr, GC assist)
// counts toward the module that caused it; a stack with no such frame
// goes to "go.gc" when it is a background collector, else "go.other".
// Inclusive weights are kept for a few named functions.
type buckets struct {
	total     float64
	module    map[string]float64
	inclusive map[string]float64
}

func newBuckets() *buckets {
	return &buckets{module: map[string]float64{}, inclusive: map[string]float64{}}
}

// inclusiveFuncs are the functions whose inclusive cost the traced runs
// report (allocation and CPU under them, callees included).
var inclusiveFuncs = []string{
	"repro/internal/core.NewSystem",
	"repro/internal/logging.GenerateOpts",
}

func (b *buckets) add(stack []string, w float64) {
	if w == 0 {
		return
	}
	b.total += w
	owner := ""
	gc := false
	for _, fn := range stack {
		if owner == "" {
			owner = moduleOf(fn)
		}
		gc = gc || isBackgroundGC(fn)
	}
	switch {
	case owner != "":
	case gc:
		owner = "go.gc"
	default:
		owner = "go.other"
	}
	b.module[owner] += w
	for _, want := range inclusiveFuncs {
		for _, fn := range stack {
			if fn == want {
				b.inclusive[want] += w
				break
			}
		}
	}
}

func (b *buckets) share(owner string) float64 {
	if b.total == 0 {
		return 0
	}
	return b.module[owner] / b.total
}

// cpuProfile records a CPU profile between start and stop.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and buckets its samples by CPU nanoseconds.
func (p *cpuProfile) stop() (*buckets, error) {
	pprof.StopCPUProfile()
	return decodeCPUProfile(p.buf.Bytes())
}

// decodeCPUProfile reads the gzipped profile.proto runtime/pprof writes,
// with just enough of the protobuf wire format to walk samples,
// locations and functions.
func decodeCPUProfile(gz []byte) (*buckets, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []sample
		strs      []string
		funcName  = map[uint64]int64{}    // function id → string index
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		valueKind []int64                 // sample_type type string indexes
	)
	err = walkFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return walkFields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					valueKind = append(valueKind, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := walkFields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					s.values = appendPacked(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decoding CPU profile: %w", err)
	}
	// Weight by CPU nanoseconds when the profile carries them.
	vi := 0
	for i, k := range valueKind {
		if k >= 0 && int(k) < len(strs) && strs[k] == "cpu" {
			vi = i
		}
	}
	b := newBuckets()
	for _, s := range samples {
		if vi >= len(s.values) {
			continue
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				if si := funcName[fid]; si >= 0 && int(si) < len(strs) {
					stack = append(stack, strs[si])
				}
			}
		}
		b.add(stack, float64(s.values[vi]))
	}
	return b, nil
}

// walkFields calls fn for each field of a protobuf message: v carries a
// varint field's value, b a length-delimited field's bytes.
func walkFields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", num)
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("short fixed64 in field %d", num)
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("bad length in field %d", num)
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("short fixed32 in field %d", num)
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, num)
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// appendPacked appends a repeated varint field that arrived either as
// one varint or as a packed run.
func appendPacked(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

// allocSnapshot is the cumulative allocation profile at one instant,
// keyed by stack.
type allocSnapshot map[[32]uintptr]runtime.MemProfileRecord

// takeAllocSnapshot forces a collection so the profile covers every
// allocation made so far, then copies it.
func takeAllocSnapshot() allocSnapshot {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		n, ok = runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
	}
	snap := make(allocSnapshot, len(recs))
	for _, r := range recs {
		snap[r.Stack0] = r
	}
	return snap
}

// allocBuckets buckets the bytes allocated between two snapshots, scaled
// for sampling the way pprof scales heap profiles.
func allocBuckets(before, after allocSnapshot) *buckets {
	b := newBuckets()
	rate := float64(runtime.MemProfileRate)
	for key, r := range after {
		objs, bytes := r.AllocObjects, r.AllocBytes
		if prev, ok := before[key]; ok {
			objs -= prev.AllocObjects
			bytes -= prev.AllocBytes
		}
		if objs <= 0 || bytes <= 0 {
			continue
		}
		w := float64(bytes)
		if rate > 1 {
			avg := float64(bytes) / float64(objs)
			w /= 1 - math.Exp(-avg/rate)
		}
		b.add(symbolize(r.Stack()), w)
	}
	return b
}

func symbolize(pcs []uintptr) []string {
	var out []string
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		if f.Function != "" {
			out = append(out, f.Function)
		}
		if !more {
			return out
		}
	}
}

// profiled runs fn under a CPU profile and between two allocation
// snapshots, and returns both bucketings.
func profiled(fn func() error) (cpu, alloc *buckets, err error) {
	before := takeAllocSnapshot()
	p, err := startCPUProfile()
	if err != nil {
		return nil, nil, err
	}
	ferr := fn()
	cpu, perr := p.stop()
	if ferr != nil {
		return nil, nil, ferr
	}
	if perr != nil {
		return nil, nil, perr
	}
	return cpu, allocBuckets(before, takeAllocSnapshot()), nil
}

// setShares records every module's CPU and allocation share.
func (r *run) setShares(cpu, alloc *buckets) {
	for _, m := range shareModules {
		r.layer(m+".cpu_share", cpu.share(m))
		r.layer(m+".alloc_share", alloc.share(m))
	}
	r.layer("go.gc_cpu_share", cpu.share("go.gc"))
	r.layer("go.other_cpu_share", cpu.share("go.other"))
}
