package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/crashcampaign"
	"repro/internal/engine"
	"repro/internal/litmus"
	"repro/internal/logging"
	"repro/internal/stats"
	"repro/internal/workload"
)

// campaignConfig is proteus-crash's default campaign (30 tuples: the
// Table 2 benchmarks × the failure-safe schemes) at sweep 256 with torn
// writes and ADR loss, on a fresh engine. The seed drives both the
// workloads and the fault randomness.
func campaignConfig(seed int64, progress func(engine.Event)) (crashcampaign.Config, error) {
	faults, err := crashcampaign.ParseFaults("torn,adrloss")
	if err != nil {
		return crashcampaign.Config{}, err
	}
	c := crashcampaign.Config{
		Params: workload.Params{Threads: 2, InitOps: 256, SimOps: 40, Seed: seed,
			SSItems: 256, SSStrSize: 256, ListNodes: 4, ListElems: 64},
		Sim:    config.Default(),
		Sweep:  256,
		Faults: faults,
		Seed:   seed,
		Engine: engine.New(engine.Config{Workers: workers, Progress: progress}),
	}
	c.Normalize()
	return c, nil
}

// campaignInputs prepares what the campaign's tuples start from: each
// Table 2 workload at the campaign's parameters, and each tuple's traces.
// The pass's fresh engine and crashcampaign.Run prepare them again; set-up
// times this so a change that moves input preparation out of the pass
// shows.
func campaignInputs(seed int64) error {
	c, err := campaignConfig(seed, nil)
	if err != nil {
		return err
	}
	for _, b := range c.Benches {
		wl, err := workload.Build(b, c.Params)
		if err != nil {
			return fmt.Errorf("building %v: %w", b, err)
		}
		for _, s := range c.Schemes {
			if _, err := logging.Generate(wl, s, c.Sim); err != nil {
				return fmt.Errorf("generating %v/%v traces: %w", b, s, err)
			}
		}
	}
	return nil
}

func campaignPass(ctx context.Context, seed int64) (*crashcampaign.Report, error) {
	c, err := campaignConfig(seed, nil)
	if err != nil {
		return nil, err
	}
	return crashcampaign.Run(ctx, c)
}

func reportDigest(write func(*bytes.Buffer) error) (string, error) {
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return "", err
	}
	return digest(buf.Bytes()), nil
}

func (r *run) checkCampaign(rep *crashcampaign.Report, first *string) error {
	d, err := reportDigest(func(b *bytes.Buffer) error { return rep.WriteJSON(b) })
	if err != nil {
		return err
	}
	r.checkN(int64(rep.Totals.Injections), int64(rep.Totals.Failed), "injections (failed outcome)")
	r.checkGolden(d, first)
	return nil
}

func runCampaign(r *run) error {
	ctx := context.Background()
	if _, err := timedSetup(r, func() (struct{}, error) { return struct{}{}, campaignInputs(r.seed) },
		func(struct{}) {}); err != nil {
		return err
	}
	var first string
	var injections, cycles float64
	pass := func() error {
		rep, err := campaignPass(ctx, r.seed)
		if err != nil {
			return err
		}
		injections, cycles = float64(rep.Totals.Injections), 0
		for _, t := range rep.Tuples {
			cycles += float64(t.TotalCycles)
		}
		return r.checkCampaign(rep, &first)
	}
	if !r.traced {
		ps, err := r.timedPasses(pass)
		if err != nil {
			return err
		}
		r.batchEndToEnd(ps, injections, cycles)
		return nil
	}

	ref, err := measure(pass)
	if err != nil {
		return err
	}
	// Traced pass: the same tuples through crashcampaign.RunTuple, the
	// unit a cluster worker runs, two at a time, with a span each.
	clock := newJobClock()
	c, err := campaignConfig(r.seed, clock.event)
	if err != nil {
		return err
	}
	type tuple struct {
		bench  workload.Kind
		scheme core.Scheme
	}
	var tuples []tuple
	for _, b := range c.Benches {
		for _, s := range c.Schemes {
			tuples = append(tuples, tuple{b, s})
		}
	}
	reps := make([]*crashcampaign.TupleReport, len(tuples))
	walls := make([]time.Duration, len(tuples))
	var wall time.Duration
	cpuB, allocB, err := profiled(func() error {
		t0 := time.Now()
		defer func() { wall = time.Since(t0) }()
		return parallel(len(tuples), func(i int) error {
			t1 := time.Now()
			rep, err := crashcampaign.RunTuple(ctx, c, tuples[i].bench, tuples[i].scheme)
			walls[i] = time.Since(t1)
			reps[i] = rep
			return err
		})
	})
	if err != nil {
		return err
	}
	rep := crashcampaign.AssembleReport(c, reps)
	if err := r.checkCampaign(rep, &first); err != nil {
		return err
	}

	var tupleS, overRef []float64
	// Machines built: the engine's reference runs, and one per chunk of
	// crash points (crashcampaign's chunkPoints) that a tuple steps
	// through its points.
	systems := float64(c.Engine.Counters().Simulated)
	for i, t := range reps {
		tupleS = append(tupleS, walls[i].Seconds())
		systems += float64((len(t.Points) + campaignChunkPoints - 1) / campaignChunkPoints)
		if w := clock.exec[t.Fingerprint]; w > 0 {
			overRef = append(overRef, walls[i].Seconds()/w.Seconds())
		}
	}
	r.layer("crashcampaign.tuple_p50_s", median(tupleS))
	r.layer("crashcampaign.tuple_max_s", quantile(tupleS, 1))
	r.layer("crashcampaign.tuple_over_ref", median(overRef))
	r.outcomes(rep.Totals.Injections, rep.Totals.Verified, rep.Totals.Detected, rep.Totals.Vulnerable, rep.Totals.Failed)
	r.layer("crashcampaign.injections", float64(rep.Totals.Injections))
	r.engineMetrics(clock, wall)

	// The modeled counts are those of the full-length reference runs,
	// read back from the engine's memo table.
	var refs []*stats.Report
	for _, t := range tuples {
		res, err := c.Engine.Run(ctx, engine.Job{Kind: t.bench, Params: c.Params, Scheme: t.scheme, Config: c.Sim})
		if err != nil {
			return err
		}
		refs = append(refs, res.Report)
	}
	r.modeledCounts(refs)
	r.layer("core.systems", systems)
	r.profiledCore(cpuB, allocB)
	r.uncovered(cpuB, wall)
	r.layer("trace.overhead_frac", wall.Seconds()/ref.wall.Seconds()-1)
	r.setShares(cpuB, allocB)
	return nil
}

// outcomes records the injection counts by outcome.
func (r *run) outcomes(total, verified, detected, vulnerable, failed int) {
	r.layer("crashcampaign.verified", float64(verified))
	r.layer("crashcampaign.detected", float64(detected))
	r.layer("crashcampaign.vulnerable", float64(vulnerable))
	r.layer("crashcampaign.failed", float64(failed))
	r.check(verified+detected+vulnerable+failed == total, "outcome counts do not sum to %d injections", total)
}

// campaignChunkPoints is crashcampaign's chunkPoints: how many crash
// points one machine steps through. core.systems counts on it.
const campaignChunkPoints = 8

// uncovered records the share of the pool's time (workers × wall) that no
// profile bucket of a repository module or of the collector covers: idle
// workers, and CPU outside the repository (HTTP, syscalls, the benchmark
// itself). It serves sweep drivers whose calls the benchmark cannot split
// into layer spans.
func (r *run) uncovered(cpuB *buckets, wall time.Duration) {
	covered := (cpuB.total - cpuB.module["go.other"]) / 1e9
	r.layer("trace.uncovered_share", 1-covered/(float64(workers)*wall.Seconds()))
}

// profiledCore reads core.NewSystem's cost from the profiles, for sweep
// drivers that build machines inside one call the benchmark cannot
// split.
func (r *run) profiledCore(cpuB, allocB *buckets) {
	r.layer("core.newsystem_s", cpuB.inclusive["repro/internal/core.NewSystem"]/1e9)
	r.layer("core.newsystem_alloc_mb", allocB.inclusive["repro/internal/core.NewSystem"]/1e6)
}

// litmusPass sweeps the full 398-program grammar over every failure-safe
// scheme and fault model; the seed drives the fault randomness.
func litmusPass(ctx context.Context, seed int64) (*litmus.Report, error) {
	return litmus.Run(ctx, litmus.Config{Seed: seed, Workers: workers})
}

func (r *run) checkLitmus(rep *litmus.Report, first *string) error {
	d, err := reportDigest(func(b *bytes.Buffer) error { return rep.WriteJSON(b) })
	if err != nil {
		return err
	}
	r.checkN(int64(rep.Totals.Injections), int64(rep.Totals.Failed), "injections (failed outcome)")
	r.check(rep.Totals.Divergences == 0, "%d divergences from the persistency axioms", rep.Totals.Divergences)
	r.checkGolden(d, first)
	return nil
}

func runLitmus(r *run) error {
	ctx := context.Background()
	if _, err := timedSetup(r, func() (int, error) {
		// The grammar must compile before the clock starts.
		progs := litmus.Enumerate()
		for _, p := range progs {
			if _, err := p.Compile(); err != nil {
				return 0, fmt.Errorf("litmus program %s: %w", p, err)
			}
		}
		return len(progs), nil
	}, func(int) {}); err != nil {
		return err
	}
	var first string
	var injections, cycles float64
	var last *litmus.Report
	pass := func() error {
		rep, err := litmusPass(ctx, r.seed)
		if err != nil {
			return err
		}
		last = rep
		injections, cycles = float64(rep.Totals.Injections), 0
		for _, c := range rep.Cases {
			cycles += float64(c.TotalCycles)
		}
		return r.checkLitmus(rep, &first)
	}
	if !r.traced {
		ps, err := r.timedPasses(pass)
		if err != nil {
			return err
		}
		r.batchEndToEnd(ps, injections, cycles)
		return nil
	}

	ref, err := measure(pass)
	if err != nil {
		return err
	}
	// litmus.Run has no seam below it, so the traced pass is one span
	// and the profiles split it.
	var wall time.Duration
	cpuB, allocB, err := profiled(func() error {
		t0 := time.Now()
		err := pass()
		wall = time.Since(t0)
		return err
	})
	if err != nil {
		return err
	}
	states := 0
	for _, c := range last.Cases {
		states += c.States
	}
	t := last.Totals
	r.layer("litmus.cases", float64(t.Cases))
	r.layer("litmus.persist_states", float64(states))
	r.layer("litmus.injections", float64(t.Injections))
	r.outcomes(t.Injections, t.Verified, t.Detected, t.Vulnerable, t.Failed)
	r.layer("core.sim_cycles", cycles)
	// runCase builds one machine per case and steps it to the end.
	r.layer("core.systems", float64(t.Cases))
	r.profiledCore(cpuB, allocB)
	r.uncovered(cpuB, wall)
	r.layer("trace.overhead_frac", wall.Seconds()/ref.wall.Seconds()-1)
	r.setShares(cpuB, allocB)
	return nil
}
