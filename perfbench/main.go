// Command perfbench is the repository benchmark. It drives one workload
// end to end through the simulator's public packages, checks that every
// output is correct, and prints one JSON result line:
//
//	sh perfbench/run.sh --workload figures --seed 42 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 it makes a separate traced run that times the calls into
// each layer from outside and reports the per-layer metrics. BENCHMARK.json
// at the repository root lists both sets; README.md in this directory says
// what each workload is for and which layer should move which end-to-end
// metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workers bounds every pool the benchmark starts (engine workers, sweep
// workers, HTTP clients, serve workers), so figures compare across
// machines with at least this many CPUs.
const workers = 2

// goldensPath holds the checked-in expected outputs, relative to the
// repository root.
const goldensPath = "perfbench/goldens.json"

// A run repeats its set-up at least setupRounds times, and more while the
// set-ups so far took less than setupMinTime in all (a set-up of a few
// milliseconds needs many samples for a steady median), up to
// setupMaxRounds. setup_s is the median.
const (
	setupRounds    = 3
	setupMinTime   = time.Second
	setupMaxRounds = 200
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one invocation: its inputs, its correctness tally and the
// metrics it measured.
type run struct {
	workload string
	seed     int64
	budget   time.Duration
	traced   bool
	scratch  string
	goldens  *goldens

	attempted, failed int64
	e2e, layers       map[string]float64
}

// check counts one correctness check; a failed one is reported on stderr.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: CHECK FAILED: %s\n", r.workload, fmt.Sprintf(format, args...))
	}
}

// checkN counts n operations of which bad failed.
func (r *run) checkN(n, bad int64, what string) {
	r.attempted += n
	r.failed += bad
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: CHECK FAILED: %d of %d %s\n", r.workload, bad, n, what)
	}
}

func (r *run) endToEnd(name string, v float64) {
	if _, ok := unitOf(endToEndMetrics, name); !ok {
		panic("perfbench: unknown end-to-end metric " + name)
	}
	r.e2e[name] = v
}

func (r *run) layer(name string, v float64) {
	if _, ok := unitOf(layerMetrics, name); !ok {
		panic("perfbench: unknown per-layer metric " + name)
	}
	r.layers[name] = v
}

var workloads = map[string]func(*run) error{
	"figures":  runFigures,
	"campaign": runCampaign,
	"litmus":   runLitmus,
	"serve":    runServe,
}

// unlisted names the workloads BENCHMARK.json leaves out, and why. They
// run the same way when named on the command line.
var unlisted = map[string]string{
	"campaign": "some seeds expose a recovery defect, so the run reports correct false (README.md, Known defect)",
}

func main() {
	var (
		name         = flag.String("workload", "", "workload: figures, campaign, litmus or serve")
		seed         = flag.Int64("seed", 42, "input seed")
		seconds      = flag.Int("seconds", 20, "measurement budget in seconds")
		trace        = flag.Int("trace", 0, "1 makes the traced run that reports per-layer metrics")
		scratch      = flag.String("scratch", ".bench_build/run", "directory for the serve workload's stores")
		writeGoldens = flag.String("write-goldens", "", "regenerate the goldens of --workload for these seeds (a comma list, ranges as a-b) and exit")
	)
	flag.Parse()
	if *name == "" {
		fail(fmt.Errorf("--workload is required"))
	}
	fn, ok := workloads[*name]
	if !ok {
		fail(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds < 1 {
		fail(fmt.Errorf("--seconds must be at least 1"))
	}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1"))
	}
	g, err := loadGoldens(goldensPath)
	if err != nil {
		fail(err)
	}
	if *writeGoldens != "" {
		seeds, err := parseSeeds(*writeGoldens)
		if err != nil {
			fail(err)
		}
		if err := regenerate(g, *name, seeds); err != nil {
			fail(err)
		}
		if err := g.save(goldensPath); err != nil {
			fail(err)
		}
		return
	}
	if *trace == 1 {
		// Finer allocation sampling for the traced run's module shares.
		runtime.MemProfileRate = 64 << 10
	}

	r := &run{
		workload: *name,
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		scratch:  *scratch,
		goldens:  g,
		e2e:      map[string]float64{},
		layers:   map[string]float64{},
	}
	if _, ok := g.forSeed(*name, *seed); !ok {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no golden for seed %d; checking invariants only\n", *name, *seed)
	}
	if err := fn(r); err != nil {
		fail(err)
	}
	if r.attempted == 0 {
		fail(fmt.Errorf("%s: no operation was attempted", *name))
	}
	printResult(r)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// printResult writes a readable summary to stderr and the JSON result as
// the last line of stdout.
func printResult(r *run) {
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	errRate := float64(r.failed) / float64(r.attempted)
	list, values := endToEndMetrics, r.e2e
	if r.traced {
		list, values = layerMetrics, r.layers
	} else {
		r.endToEnd("success_rate", 1-errRate)
		r.endToEnd("peak_rss_mb", peakRSSMB())
	}
	fmt.Fprintf(os.Stderr, "perfbench: workload %s, seed %d, trace %v: %d checks, %d failed, error_rate %g\n",
		r.workload, r.seed, r.traced, r.attempted, r.failed, errRate)
	for _, m := range list {
		v, ok := values[m.name]
		if !ok && !r.traced {
			panic("perfbench: end-to-end metric not measured: " + m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		label := m.name
		if alias := opsAlias[r.workload]; m.name == "ops_per_s" && alias != "" {
			label += " (" + alias + ")"
		}
		fmt.Fprintf(os.Stderr, "  %-34s %16.6g %s\n", label, v, m.unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

// opsAlias names what ops_per_s counts on each workload.
var opsAlias = map[string]string{
	"figures":  "simulations_per_s",
	"campaign": "injections_per_s",
	"litmus":   "injections_per_s",
	"serve":    "requests_per_s",
}

// pass is one timed unit of work.
type pass struct {
	wall  time.Duration
	alloc uint64
}

// timedPasses runs fn once to warm up, then in whole passes until they
// have covered the budget. The warm-up pass faults in the heap and sizes
// the collector; it is checked like the others but not timed, so the
// median does not depend on whether the budget held two passes or three.
func (r *run) timedPasses(fn func() error) ([]pass, error) {
	if err := fn(); err != nil {
		return nil, err
	}
	start := time.Now()
	var out []pass
	for time.Since(start) < r.budget {
		p, err := measure(fn)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
		fmt.Fprintf(os.Stderr, "perfbench: pass %d: %.3f s, %.3f GB allocated\n", len(out), p.wall.Seconds(), float64(p.alloc)/1e9)
	}
	return out, nil
}

// measure times fn and counts the bytes it allocated.
func measure(fn func() error) (pass, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	t0 := time.Now()
	if err := fn(); err != nil {
		return pass{}, err
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&ms)
	return pass{wall: wall, alloc: ms.TotalAlloc - alloc0}, nil
}

// batchEndToEnd records the end-to-end metrics of a batch workload, where
// one pass is one request: ops and mcycles are counted per pass.
func (r *run) batchEndToEnd(ps []pass, opsPerPass, cyclesPerPass float64) {
	walls := make([]float64, len(ps))
	allocs := make([]float64, len(ps))
	var total float64
	for i, p := range ps {
		walls[i] = p.wall.Seconds()
		allocs[i] = float64(p.alloc)
		total += walls[i]
	}
	n := float64(len(ps))
	r.endToEnd("wall_s", median(walls))
	r.endToEnd("ops_per_s", opsPerPass*n/total)
	r.endToEnd("sim_mcycles_per_s", cyclesPerPass*n/total/1e6)
	r.endToEnd("latency_p50_ms", quantile(walls, 0.5)*1e3)
	r.endToEnd("latency_p99_ms", tail(walls)*1e3)
	r.endToEnd("alloc_gb", median(allocs)/1e9)
}

// timedSetup runs set-up as often as the constants above say, records
// the median time as setup_s, releases every environment but the last and
// returns it. The traced run reports no setup_s and sets up once.
func timedSetup[T any](r *run, setup func() (T, error), release func(T)) (T, error) {
	var env T
	var times []float64
	var total time.Duration
	more := func(i int) bool {
		if r.traced {
			return i < 1
		}
		return i < setupRounds || (total < setupMinTime && i < setupMaxRounds)
	}
	for i := 0; more(i); i++ {
		if i > 0 {
			release(env)
		}
		t0 := time.Now()
		e, err := setup()
		if err != nil {
			var zero T
			return zero, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		total += d
		times = append(times, d.Seconds())
		env = e
	}
	if !r.traced {
		r.endToEnd("setup_s", median(times))
	}
	return env, nil
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail is the 99th percentile when at least ten samples lie beyond it.
// With fewer samples (a batch run has a handful of passes) no tail
// percentile is measurable, and it falls back to the median.
func tail(xs []float64) float64 {
	if float64(len(xs))*0.01 >= 10 {
		return quantile(xs, 0.99)
	}
	return median(xs)
}

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// parseSeeds reads "1,5,10-12".
func parseSeeds(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		lo, hi, isRange := strings.Cut(strings.TrimSpace(part), "-")
		a, err := strconv.ParseInt(lo, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed list %q", s)
		}
		b := a
		if isRange {
			if b, err = strconv.ParseInt(hi, 10, 64); err != nil || b < a {
				return nil, fmt.Errorf("bad seed range %q", part)
			}
		}
		for x := a; x <= b; x++ {
			out = append(out, x)
		}
	}
	return out, nil
}
