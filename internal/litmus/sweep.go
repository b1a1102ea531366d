package litmus

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/crashcampaign"
	"repro/internal/logging"
)

// Config configures a litmus sweep.
type Config struct {
	// Programs defaults to the full Enumerate() grammar.
	Programs []Program
	// Schemes defaults to every failure-safe scheme.
	Schemes []core.Scheme
	// Faults defaults to the full model set (clean, torn, adrloss,
	// corrupt); FaultClean is always included.
	Faults []crashcampaign.Fault
	// Seed feeds the per-injection fault randomness.
	Seed int64
	// Workers bounds concurrent case sweeps (0 = GOMAXPROCS).
	Workers int
	// ArtifactDir, when set, receives one reproducer directory per
	// divergence.
	ArtifactDir string
	// ReplayCmd names the replay binary in generated repro command lines;
	// empty means "proteus-litmus".
	ReplayCmd string
}

func (c *Config) fill() {
	if len(c.Programs) == 0 {
		c.Programs = Enumerate()
	}
	if len(c.Schemes) == 0 {
		c.Schemes = core.FailureSafeSchemes()
	}
	if len(c.Faults) == 0 {
		c.Faults = crashcampaign.AllFaults
	} else {
		c.Faults = crashcampaign.NormalizeFaults(c.Faults)
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.ReplayCmd == "" {
		c.ReplayCmd = "proteus-litmus"
	}
}

// SimConfig returns the machine configuration litmus programs run under:
// the paper's machine with the per-transaction harness ALU padding
// zeroed, so a 2–4 store program's run is a few thousand cycles and an
// exhaustive per-cycle sweep stays cheap.
func SimConfig(threads int) config.Config {
	cfg := config.Default()
	cfg.Cores = threads
	cfg.Core.AluPerTxn = 0
	return cfg
}

// Run sweeps every (program, scheme) case and assembles the
// deterministic report: cases are indexed up front, executed by a worker
// pool, and emitted in index order, so the bytes never depend on worker
// count or completion order.
func Run(ctx context.Context, c Config) (*Report, error) {
	c.fill()
	type caseKey struct {
		prog   Program
		scheme core.Scheme
	}
	var keys []caseKey
	for _, p := range c.Programs {
		for _, s := range c.Schemes {
			keys = append(keys, caseKey{p, s})
		}
	}

	results := make([]CaseReport, len(keys))
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	sem := make(chan struct{}, c.Workers)
	for i, k := range keys {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(i int, k caseKey) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if ctx.Err() != nil {
				errs[i] = ctx.Err()
				return
			}
			results[i], errs[i] = runCase(&c, k.prog, k.scheme)
		}(i, k)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("litmus: case %s/%s: %w", keys[i].prog, keys[i].scheme, err)
		}
	}

	rep := &Report{
		Suite: Info{
			Seed:              c.Seed,
			Programs:          len(c.Programs),
			ConfigFingerprint: SimConfig(1).Fingerprint(),
		},
		Cases: results,
	}
	for _, s := range c.Schemes {
		rep.Suite.Schemes = append(rep.Suite.Schemes, s.String())
	}
	for _, f := range c.Faults {
		rep.Suite.Faults = append(rep.Suite.Faults, f.String())
	}
	for i := range rep.Cases {
		cr := &rep.Cases[i]
		rep.Totals.Cases++
		rep.Totals.Injections += cr.Injections
		rep.Totals.Add(cr.Tally)
		rep.Totals.Divergences += len(cr.Divergences)
	}
	return rep, nil
}

// persistKey dedups sweep cycles: equal signatures AND equal committed
// counts guarantee the crash image, the fault target universe, and the
// axiomatic window are all identical, so one representative cycle stands
// for the run. (Signature alone is not enough — a transaction can retire
// without moving persist state, which shifts the permitted window.)
type persistKey struct {
	sig       uint64
	committed [2]int
}

// runCase sweeps one (program, scheme) pair: compile, generate the
// scheme's trace, then single-step the machine from cycle 1 to
// completion, classifying every applicable fault at each distinct
// persist state.
func runCase(c *Config, prog Program, scheme core.Scheme) (CaseReport, error) {
	cr := CaseReport{Program: prog.Name(), Scheme: scheme.String()}
	compiled, err := prog.Compile()
	if err != nil {
		return cr, err
	}
	threads := len(prog.Threads)
	cfg := SimConfig(threads)
	traces, err := logging.Generate(compiled.WL, scheme, cfg)
	if err != nil {
		return cr, err
	}
	kc := crashcampaign.Case{Scheme: scheme, Threads: threads, Verify: newChecker(compiled, scheme).permitted}
	sys, err := core.NewSystem(cfg, scheme, traces, compiled.WL.InitImage)
	if err != nil {
		return cr, err
	}

	// firstDiv remembers which faults already produced their reduced
	// earliest divergence for this case.
	firstDiv := make(map[crashcampaign.Fault]bool)
	seen := make(map[persistKey]bool)
	for !sys.Finished() {
		sys.Step(1)
		committed := crashcampaign.CommittedCounts(sys)
		key := persistKey{sig: sys.PersistSig()}
		copy(key.committed[:], committed)
		if seen[key] {
			continue
		}
		seen[key] = true
		if err := classifyState(c, &cr, kc, sys, committed, firstDiv); err != nil {
			return cr, err
		}
	}
	cr.TotalCycles = sys.Cycle()
	cr.States = len(seen)
	return cr, nil
}

// classifyState evaluates every applicable fault at the system's current
// state, counting outcomes and recording the first divergence per fault.
// States are visited in cycle order, so that divergence is the earliest
// one; the kernel shrinks its fault mask and, with an artifact dir, it is
// dumped as a reproducer.
func classifyState(c *Config, cr *CaseReport, kc crashcampaign.Case, sys *core.System, committed []int, firstDiv map[crashcampaign.Fault]bool) error {
	cycle := sys.Cycle()
	for _, f := range c.Faults {
		if !f.AppliesTo(kc.Scheme) {
			continue
		}
		inj := crashcampaign.Injection{
			Fault: f,
			Seed:  crashcampaign.SeedFor(c.Seed, cr.Program, cr.Scheme, f.String(), fmt.Sprint(cycle)),
		}
		outcome, _ := kc.Inject(sys, inj, committed)
		cr.Injections++
		cr.Count(outcome)
		if outcome != crashcampaign.OutcomeFailed || firstDiv[f] {
			continue
		}
		firstDiv[f] = true
		inj, targets, _, detail := kc.Reduce(sys, inj, committed, outcome)
		div := Divergence{Fault: f.String(), Cycle: cycle, Detail: detail, Targets: targets, Mask: inj.Mask}
		if c.ArtifactDir != "" {
			dir, repro, err := writeArtifact(c, cr.Program, kc, sys, inj, committed, outcome, detail)
			if err != nil {
				return err
			}
			div.Artifact, div.Repro = dir, repro
		}
		cr.Divergences = append(cr.Divergences, div)
	}
	return nil
}
