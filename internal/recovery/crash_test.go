package recovery_test

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/crashcampaign"
	"repro/internal/logging"
	"repro/internal/recovery"
	"repro/internal/workload"
)

// crashSetup builds a small machine/workload pair for crash testing.
func crashSetup(t *testing.T, kind workload.Kind) (*workload.Workload, config.Config, *recovery.Oracle) {
	t.Helper()
	p := workload.Params{Threads: 2, InitOps: 256, SimOps: 40, Seed: 11,
		SSItems: 256, SSStrSize: 256, ListNodes: 4, ListElems: 64}
	w, err := workload.Build(kind, p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	cfg.Cores = p.Threads
	return w, cfg, recovery.NewOracle(w)
}

func newSystem(t *testing.T, w *workload.Workload, cfg config.Config, scheme core.Scheme) *core.System {
	t.Helper()
	traces, err := logging.Generate(w, scheme, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(cfg, scheme, traces, w.InitImage)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestCrashRecoveryAtomicity walks every failure-safe scheme forward in
// small steps, and at each step extracts a crash image, runs recovery, and
// verifies the durable-transaction property: the recovered persistent
// state equals the state after a prefix of each thread's transactions.
func TestCrashRecoveryAtomicity(t *testing.T) {
	kinds := []workload.Kind{workload.Queue, workload.HashMap, workload.AVLTree, workload.RBTree, workload.BTree, workload.StringSwap}
	if testing.Short() {
		kinds = kinds[:2]
	}
	for _, kind := range kinds {
		kind := kind
		t.Run(kind.Abbrev(), func(t *testing.T) {
			w, cfg, oracle := crashSetup(t, kind)
			for _, scheme := range []core.Scheme{core.PMEM, core.PMEMPcommit, core.ATOM, core.Proteus, core.ProteusNoLWR} {
				scheme := scheme
				t.Run(scheme.String(), func(t *testing.T) {
					sys := newSystem(t, w, cfg, scheme)
					points := 0
					for !sys.Finished() {
						sys.Step(997)
						img := sys.CrashImage()
						if _, err := recovery.Recover(img, scheme, cfg.Cores); err != nil {
							t.Fatalf("cycle %d: recovery failed: %v", sys.Cycle(), err)
						}
						verify := oracle.VerifyPrefix
						if scheme == core.PMEM || scheme == core.PMEMPcommit {
							verify = oracle.VerifyPrefixSW
						}
						if _, err := verify(img, crashcampaign.CommittedCounts(sys)); err != nil {
							t.Fatalf("cycle %d: %v", sys.Cycle(), err)
						}
						points++
					}
					if points < 5 {
						t.Fatalf("only %d crash points sampled; run too short for coverage", points)
					}
				})
			}
		})
	}
}

// TestNoLogIsNotFailureSafe documents that the ideal PMEM+nolog case tears
// transactions: at least one crash point must leave state that matches no
// transaction prefix.
func TestNoLogIsNotFailureSafe(t *testing.T) {
	w, cfg, oracle := crashSetup(t, workload.StringSwap)
	sys := newSystem(t, w, cfg, core.PMEMNoLog)
	torn := false
	for !sys.Finished() && !torn {
		sys.Step(97)
		img := sys.CrashImage()
		if _, err := oracle.VerifyPrefix(img, crashcampaign.CommittedCounts(sys)); err != nil {
			torn = true
		}
	}
	if !torn {
		t.Error("PMEM+nolog never tore a transaction; the failure-safety tests would be vacuous")
	}
}

// TestRecoveryIdempotent checks that running recovery twice is safe (a
// second crash during recovery).
func TestRecoveryIdempotent(t *testing.T) {
	w, cfg, oracle := crashSetup(t, workload.RBTree)
	full := newSystem(t, w, cfg, core.Proteus)
	full.Run(0)
	sys := newSystem(t, w, cfg, core.Proteus)
	sys.Step(full.Cycle() / 2)
	img := sys.CrashImage()
	if _, err := recovery.Recover(img, core.Proteus, cfg.Cores); err != nil {
		t.Fatal(err)
	}
	if _, err := recovery.Recover(img, core.Proteus, cfg.Cores); err != nil {
		t.Fatalf("second recovery pass failed: %v", err)
	}
	if _, err := oracle.VerifyPrefix(img, crashcampaign.CommittedCounts(sys)); err != nil {
		t.Fatalf("state after double recovery: %v", err)
	}
}
