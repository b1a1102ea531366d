package core_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/litmus"
	"repro/internal/logging"
	"repro/internal/memctrl"
	"repro/internal/nvm"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// pairResult is everything observable from one run that the fast stepper
// must reproduce byte-for-byte.
type pairResult struct {
	rep     *stats.Report
	commits [][]cpu.Commit
	trace   []byte
	image   []byte
}

// runWith executes the workload under one stepper, capturing the report,
// commits, JSONL trace, and final crash image. A run error (e.g. the cycle
// budget expiring) is returned, not fatal: the fuzz target must tolerate
// configurations where the modeled machine genuinely cannot progress.
func runWith(t testing.TB, cfg config.Config, scheme core.Scheme, traces []*isa.Trace, w *workload.Workload, st core.Stepper, epoch, maxCycles uint64) (*pairResult, error) {
	t.Helper()
	sys, err := core.NewSystem(cfg, scheme, traces, w.InitImage)
	if err != nil {
		t.Fatal(err)
	}
	sys.SetStepper(st)
	var buf bytes.Buffer
	if epoch > 0 {
		tr, err := trace.NewJSONLTracer(&buf, trace.Meta{Label: "equiv", Cores: cfg.Cores}, epoch)
		if err != nil {
			t.Fatal(err)
		}
		sys.SetTracer(tr)
	}
	rep, err := sys.Run(maxCycles)
	if err != nil {
		return nil, err
	}
	var img bytes.Buffer
	if err := sys.CrashImage().Serialize(&img); err != nil {
		t.Fatal(err)
	}
	return &pairResult{rep: rep, commits: sys.Commits(), trace: buf.Bytes(), image: img.Bytes()}, nil
}

func comparePair(t *testing.T, ref, fast *pairResult) {
	t.Helper()
	if !reflect.DeepEqual(ref.rep, fast.rep) {
		t.Errorf("report diverges:\nreference: %+v\nfast:      %+v", ref.rep, fast.rep)
	}
	if !reflect.DeepEqual(ref.commits, fast.commits) {
		t.Errorf("commits diverge")
	}
	if !bytes.Equal(ref.trace, fast.trace) {
		t.Errorf("JSONL traces diverge (%d vs %d bytes)", len(ref.trace), len(fast.trace))
	}
	if !bytes.Equal(ref.image, fast.image) {
		t.Errorf("crash images diverge (%d vs %d bytes)", len(ref.image), len(fast.image))
	}
}

// TestFastForwardEquivalence cross-checks the fast stepper against the
// reference stepper for every scheme x Table-2 benchmark, plus the WPQ
// drain-age ablation's machine variants: byte-identical stats.Report,
// commit streams, JSONL traces, and final crash images. It is the oracle
// check behind every figure, campaign and litmus report, all of which
// run the fast stepper.
func TestFastForwardEquivalence(t *testing.T) {
	for _, kind := range workload.Table2 {
		p := kind.DefaultParams(2000)
		p.Threads = 2
		w, err := workload.Build(kind, p)
		if err != nil {
			t.Fatal(err)
		}
		cfg := config.Default()
		cfg.Cores = p.Threads
		for _, scheme := range core.Schemes {
			kind, scheme := kind, scheme
			t.Run(kind.String()+"/"+scheme.String(), func(t *testing.T) {
				t.Parallel()
				traces, err := logging.Generate(w, scheme, cfg)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := runWith(t, cfg, scheme, traces, w, core.StepperReference, 2000, 500_000_000)
				if err != nil {
					t.Fatal(err)
				}
				fast, err := runWith(t, cfg, scheme, traces, w, core.StepperFast, 2000, 500_000_000)
				if err != nil {
					t.Fatal(err)
				}
				comparePair(t, ref, fast)
			})
		}
		// The WPQ drain-age ablation's machine variants (PMEM only, as in
		// the ablation).
		for _, age := range experiments.WPQDrainAges {
			kind, vcfg := kind, cfg
			vcfg.Mem.MaxWPQAge = age
			t.Run(fmt.Sprintf("%v/PMEM/wpq-age=%d", kind, age), func(t *testing.T) {
				t.Parallel()
				traces, err := logging.Generate(w, core.PMEM, vcfg)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := runWith(t, vcfg, core.PMEM, traces, w, core.StepperReference, 2000, 500_000_000)
				if err != nil {
					t.Fatal(err)
				}
				fast, err := runWith(t, vcfg, core.PMEM, traces, w, core.StepperFast, 2000, 500_000_000)
				if err != nil {
					t.Fatal(err)
				}
				comparePair(t, ref, fast)
			})
		}
	}
}

// crashView is everything the crash-injection kernel reads from a system
// at a crash point: position, commit horizon, persist signature, the
// torn-write target lists, and the crash image under each fault model.
type crashView struct {
	cycle            uint64
	finished         bool
	commits          [][]cpu.Commit
	sig              uint64
	pendingADR       []uint64
	pendingNoADR     []uint64
	clean, torn, adr []byte
}

func viewOf(t *testing.T, sys *core.System) crashView {
	t.Helper()
	ser := func(img *nvm.Store) []byte {
		var b bytes.Buffer
		if err := img.Serialize(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	return crashView{
		cycle:        sys.Cycle(),
		finished:     sys.Finished(),
		commits:      sys.Commits(),
		sig:          sys.PersistSig(),
		pendingADR:   sys.PendingLines(true),
		pendingNoADR: sys.PendingLines(false),
		clean:        ser(sys.CrashImage()),
		torn: ser(sys.CrashImageWith(memctrl.CrashFault{ADR: sys.ADR(), Torn: func(idx int, addr uint64) int {
			return int((uint64(idx)*0x9E3779B97F4A7C15 ^ addr) % 8)
		}})),
		adr: ser(sys.CrashImageWith(memctrl.CrashFault{ADR: false})),
	}
}

func compareViews(t *testing.T, where string, ref, fast crashView) {
	t.Helper()
	switch {
	case ref.cycle != fast.cycle:
		t.Fatalf("%s: cycle ref %d fast %d", where, ref.cycle, fast.cycle)
	case ref.finished != fast.finished:
		t.Fatalf("%s: finished flag diverges", where)
	case !reflect.DeepEqual(ref.commits, fast.commits):
		t.Fatalf("%s: commits diverge", where)
	case ref.sig != fast.sig:
		t.Fatalf("%s: persist signature ref %#x fast %#x", where, ref.sig, fast.sig)
	case !reflect.DeepEqual(ref.pendingADR, fast.pendingADR) || !reflect.DeepEqual(ref.pendingNoADR, fast.pendingNoADR):
		t.Fatalf("%s: pending lines diverge", where)
	case !bytes.Equal(ref.clean, fast.clean):
		t.Fatalf("%s: clean crash image diverges", where)
	case !bytes.Equal(ref.torn, fast.torn):
		t.Fatalf("%s: torn crash image diverges", where)
	case !bytes.Equal(ref.adr, fast.adr):
		t.Fatalf("%s: ADR-loss crash image diverges", where)
	}
}

// TestFastForwardCrashPointEquivalence is the cross-stepper check under
// the crash-injection kernel: both steppers are stepped to the same exact
// crash points and must expose identical observables there. Campaign
// shape: for every scheme, 256 evenly spaced points over a queue run and
// a string-swap run, walked in chunks of 8 with a fresh machine per chunk. Litmus shape: every
// cycle of a two-thread litmus program under every failure-safe scheme.
func TestFastForwardCrashPointEquivalence(t *testing.T) {
	const sweep, chunk = 256, 8
	cfg := config.Default()
	cfg.Cores = 2
	var wls []*workload.Workload
	for _, kind := range []workload.Kind{workload.Queue, workload.StringSwap} {
		p := kind.DefaultParams(2000)
		p.Threads = cfg.Cores
		w, err := workload.Build(kind, p)
		if err != nil {
			t.Fatal(err)
		}
		wls = append(wls, w)
	}
	for _, scheme := range core.Schemes {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			t.Parallel()
			for _, w := range wls {
				traces, err := logging.Generate(w, scheme, cfg)
				if err != nil {
					t.Fatal(err)
				}
				mk := func(st core.Stepper) *core.System {
					sys, err := core.NewSystem(cfg, scheme, traces, w.InitImage)
					if err != nil {
						t.Fatal(err)
					}
					sys.SetStepper(st)
					return sys
				}
				full := mk(core.StepperFast)
				if _, err := full.Run(0); err != nil {
					t.Fatal(err)
				}
				total := full.Cycle()
				for lo := uint64(1); lo <= sweep; lo += chunk {
					ref, fast := mk(core.StepperReference), mk(core.StepperFast)
					for i := lo; i < lo+chunk; i++ {
						cycle := total * i / (sweep + 1)
						ref.Step(cycle - ref.Cycle())
						fast.Step(cycle - fast.Cycle())
						compareViews(t, fmt.Sprintf("%v cycle %d", w.Kind, cycle), viewOf(t, ref), viewOf(t, fast))
					}
				}
			}
		})
	}
	prog, err := litmus.Parse("Pc:xy|x;y")
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := prog.Compile()
	if err != nil {
		t.Fatal(err)
	}
	lcfg := litmus.SimConfig(len(prog.Threads))
	for _, scheme := range core.FailureSafeSchemes() {
		scheme := scheme
		t.Run("litmus/"+scheme.String(), func(t *testing.T) {
			t.Parallel()
			traces, err := logging.Generate(compiled.WL, scheme, lcfg)
			if err != nil {
				t.Fatal(err)
			}
			mk := func(st core.Stepper) *core.System {
				sys, err := core.NewSystem(lcfg, scheme, traces, compiled.WL.InitImage)
				if err != nil {
					t.Fatal(err)
				}
				sys.SetStepper(st)
				return sys
			}
			ref, fast := mk(core.StepperReference), mk(core.StepperFast)
			for !ref.Finished() || !fast.Finished() {
				ref.Step(1)
				fast.Step(1)
				compareViews(t, fmt.Sprintf("cycle %d", ref.Cycle()), viewOf(t, ref), viewOf(t, fast))
			}
		})
	}
}

// FuzzFastForwardEquivalence fuzzes workload kind, scheme, queue depths
// and drain policy, and fails on any observable divergence between the
// reference and fast steppers.
func FuzzFastForwardEquivalence(f *testing.F) {
	// Seed corpus: one per scheme family, plus queue-pressure corners.
	f.Add(uint8(0), uint8(0), uint8(16), uint8(8), uint8(8), uint8(12))
	f.Add(uint8(1), uint8(3), uint8(4), uint8(2), uint8(1), uint8(10))
	f.Add(uint8(2), uint8(4), uint8(8), uint8(16), uint8(0), uint8(8))
	f.Add(uint8(3), uint8(5), uint8(2), uint8(1), uint8(4), uint8(8))
	f.Add(uint8(4), uint8(1), uint8(64), uint8(64), uint8(32), uint8(16))
	f.Add(uint8(5), uint8(2), uint8(3), uint8(4), uint8(2), uint8(8))
	f.Fuzz(func(t *testing.T, kindSel, schemeSel, wpq, lpq, drainHi, simOps uint8) {
		kind := workload.Table2[int(kindSel)%len(workload.Table2)]
		scheme := core.Schemes[int(schemeSel)%len(core.Schemes)]
		p := kind.DefaultParams(4000)
		p.Threads = 2
		p.SimOps = 4 + int(simOps)%16
		w, err := workload.Build(kind, p)
		if err != nil {
			t.Skip()
		}
		cfg := config.Default()
		cfg.Cores = p.Threads
		// WPQ >= 2: ATOM sends meta+data pairs and needs two free slots,
		// so a 1-entry WPQ livelocks the modeled machine by design.
		cfg.Mem.WPQ = 2 + int(wpq)%127
		cfg.Mem.LPQ = 1 + int(lpq)%128
		cfg.Mem.DrainHi = int(drainHi) % (cfg.Mem.WPQ + 1)
		if err := cfg.Validate(); err != nil {
			t.Skip()
		}
		traces, err := logging.Generate(w, scheme, cfg)
		if err != nil {
			t.Skip()
		}
		ref, err := runWith(t, cfg, scheme, traces, w, core.StepperReference, 1000, 20_000_000)
		if err != nil {
			// The modeled machine stalled under this configuration in the
			// reference stepper too: nothing to compare.
			t.Skip()
		}
		fast, err := runWith(t, cfg, scheme, traces, w, core.StepperFast, 1000, 20_000_000)
		if err != nil {
			t.Fatalf("fast stepper stalled where reference finished: %v", err)
		}
		if !reflect.DeepEqual(ref.rep, fast.rep) {
			t.Fatalf("report diverges for %v/%v wpq=%d lpq=%d drainHi=%d",
				kind, scheme, cfg.Mem.WPQ, cfg.Mem.LPQ, cfg.Mem.DrainHi)
		}
		if !bytes.Equal(ref.trace, fast.trace) {
			t.Fatalf("trace diverges for %v/%v", kind, scheme)
		}
		if !bytes.Equal(ref.image, fast.image) {
			t.Fatalf("crash image diverges for %v/%v", kind, scheme)
		}
	})
}
