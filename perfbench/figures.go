package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/logging"
	"repro/internal/stats"
	"repro/internal/workload"
)

// figuresOptions is the bench_test.go scale: multi-megabyte structures,
// runs of seconds per figure.
func figuresOptions(seed int64) experiments.Options {
	return experiments.Options{Threads: 4, SimScale: 100, InitScale: 4, Seed: seed}
}

// figuresPass regenerates Figures 6 and 9 through a fresh engine with no
// store and returns both tables as printed.
func figuresPass(ctx context.Context, seed int64, progress func(engine.Event)) (string, *engine.Engine, error) {
	eng := engine.New(engine.Config{Workers: workers, Progress: progress})
	suite := experiments.NewSuite(ctx, figuresOptions(seed), eng)
	t6, err := suite.Figure6()
	if err != nil {
		return "", nil, err
	}
	t9, err := suite.Figure9()
	if err != nil {
		return "", nil, err
	}
	if c := eng.Counters(); c.Failed != 0 {
		return t6.String() + t9.String(), eng, fmt.Errorf("figures seed %d: %d simulations failed", seed, c.Failed)
	}
	return t6.String() + t9.String(), eng, nil
}

// figuresJobs lists the Figure 6 and Figure 9 matrices in the order the
// suite declares them, sized the way experiments.Options sizes a Table 2
// benchmark. The traced run checks each job against the engine's memo
// table, so a drift from the suite's own sizing shows as a failed check.
func figuresJobs(seed int64) []engine.Job {
	opt := figuresOptions(seed)
	schemes := []core.Scheme{core.PMEM, core.PMEMPcommit, core.ATOM, core.ProteusNoLWR, core.Proteus, core.PMEMNoLog}
	var jobs []engine.Job
	for _, mem := range []config.MemKind{config.NVMFast, config.NVMSlow} {
		cfg := config.Default()
		cfg.Cores = opt.Threads
		cfg = cfg.WithMemKind(mem)
		for _, k := range workload.Table2 {
			p := k.DefaultParams(1)
			p.Threads = opt.Threads
			p.Seed = opt.Seed
			p.SimOps /= opt.SimScale
			p.InitOps /= opt.InitScale
			p.SSItems /= opt.InitScale
			p.SimOps = max(p.SimOps, 8)
			p.InitOps = max(p.InitOps, 16)
			p.SSItems = max(p.SSItems, 64)
			for _, sc := range schemes {
				jobs = append(jobs, engine.Job{Kind: k, Params: p, Scheme: sc, Config: cfg})
			}
		}
	}
	return jobs
}

// figuresSetup prepares a pass's inputs before its clock starts: the job
// matrix, and a build of every Table 2 workload at the matrix's
// parameters. The pass's fresh engine builds them again; set-up times
// the builds so a change that moves input preparation out of the pass
// shows.
func figuresSetup(seed int64) ([]engine.Job, error) {
	jobs := figuresJobs(seed)
	if err := buildInputs(jobs); err != nil {
		return nil, err
	}
	return jobs, nil
}

// buildInputs builds each distinct workload the jobs name, once.
func buildInputs(jobs []engine.Job) error {
	built := map[string]bool{}
	for _, j := range jobs {
		key := fmt.Sprintf("%v/%+v", j.Kind, j.Params)
		if built[key] {
			continue
		}
		built[key] = true
		if _, err := workload.Build(j.Kind, j.Params); err != nil {
			return fmt.Errorf("building %v: %w", j.Kind, err)
		}
	}
	return nil
}

func runFigures(r *run) error {
	ctx := context.Background()
	jobs, err := timedSetup(r, func() ([]engine.Job, error) { return figuresSetup(r.seed) }, func([]engine.Job) {})
	if err != nil {
		return err
	}
	if r.traced {
		return traceFigures(ctx, r, jobs)
	}
	var first string
	var sims, cycles float64
	ps, err := r.timedPasses(func() error {
		text, eng, err := figuresPass(ctx, r.seed, nil)
		if eng == nil {
			return err
		}
		c := eng.Counters()
		r.checkN(int64(c.Simulated+c.Failed), int64(c.Failed), "simulations")
		r.checkGolden(text, &first)
		sims = float64(c.Simulated + c.Failed)
		cycles = 0
		for _, m := range eng.Metrics() {
			cycles += float64(m.Cycles)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.batchEndToEnd(ps, sims, cycles)
	return nil
}

// span is the summed wall time of the calls into one layer.
type span struct {
	mu    sync.Mutex
	total time.Duration
	n     int
}

func (s *span) time(fn func() error) error {
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	s.mu.Lock()
	s.total += d
	s.n++
	s.mu.Unlock()
	return err
}

// traceFigures makes one untraced engine pass for reference, then drives
// the same matrix layer by layer (workload.Build, logging.GenerateOpts,
// core.NewSystem, System.RunContext) under profiling, and checks that
// every report equals the engine's.
func traceFigures(ctx context.Context, r *run, jobs []engine.Job) error {
	var first string
	var eng *engine.Engine
	clock := newJobClock()
	ref, err := measure(func() error {
		text, e, err := figuresPass(ctx, r.seed, clock.event)
		if e == nil {
			return err
		}
		eng = e
		c := e.Counters()
		r.checkN(int64(c.Simulated+c.Failed), int64(c.Failed), "simulations")
		r.checkGolden(text, &first)
		return nil
	})
	if err != nil {
		return err
	}
	r.engineMetrics(clock, ref.wall)

	// The traced pass keeps the suite's schedule: Figure 6's jobs, then
	// Figure 9's, on `workers` goroutines, each workload built once by the
	// first job that needs it while the others wait.
	var build, gen, newsys, simrun span
	type wlSlot struct {
		once sync.Once
		wl   *workload.Workload
		err  error
	}
	wls := map[workload.Kind]*wlSlot{}
	for _, j := range jobs {
		wls[j.Kind] = &wlSlot{}
	}
	reports := make([]*stats.Report, len(jobs))
	var uops atomic.Int64
	runJob := func(i int) error {
		j := jobs[i]
		slot := wls[j.Kind]
		slot.once.Do(func() {
			_ = build.time(func() error {
				slot.wl, slot.err = workload.Build(j.Kind, j.Params)
				return slot.err
			})
		})
		if slot.err != nil {
			return slot.err
		}
		var traces []*isa.Trace
		if err := gen.time(func() (err error) {
			traces, err = logging.GenerateOpts(slot.wl, j.Scheme, j.Config, j.Log)
			return err
		}); err != nil {
			return err
		}
		for _, tr := range traces {
			uops.Add(int64(len(tr.Ops)))
		}
		var sys *core.System
		if err := newsys.time(func() (err error) {
			sys, err = core.NewSystem(j.Config, j.Scheme, traces, slot.wl.InitImage)
			return err
		}); err != nil {
			return err
		}
		return simrun.time(func() (err error) {
			reports[i], err = sys.RunContext(ctx, 0)
			return err
		})
	}
	var wall time.Duration
	cpuB, allocB, err := profiled(func() error {
		t0 := time.Now()
		defer func() { wall = time.Since(t0) }()
		half := len(jobs) / 2
		if err := parallel(half, runJob); err != nil {
			return err
		}
		return parallel(len(jobs)-half, func(i int) error { return runJob(half + i) })
	})
	if err != nil {
		return err
	}

	// Every layer-driven report must equal the engine pass's.
	before := eng.Counters().Simulated
	for i, j := range jobs {
		res, err := eng.Run(ctx, j)
		if err != nil {
			return err
		}
		a, _ := json.Marshal(res.Report)
		b, _ := json.Marshal(reports[i])
		r.check(string(a) == string(b), "layer-driven report of %v differs from the engine's", j)
	}
	r.check(eng.Counters().Simulated == before, "the traced job matrix is not the suite's (engine simulated %d extra jobs)",
		eng.Counters().Simulated-before)

	r.layer("workload.build_s", build.total.Seconds())
	r.layer("workload.builds", float64(build.n))
	r.layer("logging.generate_s", gen.total.Seconds())
	r.layer("logging.uops", float64(uops.Load()))
	r.layer("logging.alloc_mb", allocB.inclusive["repro/internal/logging.GenerateOpts"]/1e6)
	r.layer("core.newsystem_s", newsys.total.Seconds())
	r.layer("core.newsystem_alloc_mb", allocB.inclusive["repro/internal/core.NewSystem"]/1e6)
	r.layer("core.systems", float64(newsys.n))
	r.layer("core.run_s", simrun.total.Seconds())
	r.modeledCounts(reports)
	if c := r.layers["core.sim_cycles"]; c > 0 {
		r.layer("core.ns_per_sim_cycle", simrun.total.Seconds()*1e9/c)
	}
	covered := build.total + gen.total + newsys.total + simrun.total
	r.layer("trace.uncovered_share", 1-covered.Seconds()/(float64(workers)*wall.Seconds()))
	r.layer("trace.overhead_frac", wall.Seconds()/ref.wall.Seconds()-1)
	r.setShares(cpuB, allocB)
	return nil
}

// parallel runs fn(0..n-1) on the benchmark's worker count and returns
// the first error.
func parallel(n int, fn func(i int) error) error {
	next := make(chan int)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var first error
			for i := range next {
				if first == nil {
					first = fn(i)
				}
			}
			errs <- first
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// jobClock times each engine job from its JobStart to its JobDone event.
// JobMetric.Wall and the JobDone Elapsed also count the time a job waited
// for a worker slot, which would hide how busy the pool was.
type jobClock struct {
	mu    sync.Mutex
	start map[string]time.Time
	exec  map[string]time.Duration // by job fingerprint
}

func newJobClock() *jobClock {
	return &jobClock{start: map[string]time.Time{}, exec: map[string]time.Duration{}}
}

// event is the engine's Progress hook.
func (c *jobClock) event(ev engine.Event) {
	if ev.Phase != engine.JobStart && ev.Phase != engine.JobDone {
		return
	}
	now := time.Now()
	fp := ev.Job.Fingerprint()
	c.mu.Lock()
	defer c.mu.Unlock()
	if ev.Phase == engine.JobStart {
		c.start[fp] = now
	} else if t0, ok := c.start[fp]; ok {
		c.exec[fp] = now.Sub(t0)
	}
}

// engineMetrics records the job count, the jobs' execution times, and the
// share of the pool's time (workers × wall) they kept busy.
func (r *run) engineMetrics(c *jobClock, wall time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var ms []float64
	var busy time.Duration
	for _, d := range c.exec {
		ms = append(ms, float64(d)/1e6)
		busy += d
	}
	r.layer("engine.jobs", float64(len(ms)))
	r.layer("engine.job_p50_ms", median(ms))
	r.layer("engine.job_max_ms", quantile(ms, 1))
	r.layer("engine.busy_frac", busy.Seconds()/(float64(workers)*wall.Seconds()))
}

// modeledCounts sums the simulator's own statistics over the reports.
// They are exact: a change that only makes the simulator faster leaves
// every one of them identical.
func (r *run) modeledCounts(reports []*stats.Report) {
	var cycles, retired, stalls, lltMisses, loadMisses float64
	var writes [3]float64
	for _, rep := range reports {
		cycles += float64(rep.Cycles)
		retired += float64(rep.TotalRetired())
		stalls += float64(rep.TotalFrontEndStalls())
		for i := range rep.CoreStat {
			lltMisses += float64(rep.CoreStat[i].LLTMisses)
			loadMisses += float64(rep.CoreStat[i].LoadMisses)
		}
		for c := range writes {
			writes[c] += float64(rep.MemStat.Writes[c])
		}
	}
	r.layer("core.sim_cycles", cycles)
	r.layer("cpu.retired_uops", retired)
	r.layer("cpu.frontend_stall_cycles", stalls)
	r.layer("cpu.llt_misses", lltMisses)
	r.layer("cache.load_misses", loadMisses)
	r.layer("nvm.writes_data", writes[stats.WriteData])
	r.layer("nvm.writes_log", writes[stats.WriteLog])
	r.layer("nvm.writes_truncate", writes[stats.WriteTruncate])
}
