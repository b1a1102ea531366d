package crashcampaign

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/workload"
)

func testParams() workload.Params {
	return workload.Params{Threads: 2, InitOps: 128, SimOps: 24, Seed: 11,
		SSItems: 256, SSStrSize: 256, ListNodes: 4, ListElems: 64}
}

func testConfig(workers int) Config {
	return Config{
		Params: testParams(),
		Sim:    config.Default(),
		Engine: engine.New(engine.Config{Workers: workers}),
		Seed:   7,
	}
}

// TestCleanSweepAllVerified: a clean-fault sweep across every failure-safe
// scheme must verify at every crash point — the baseline the recovery
// tests already establish, now through the campaign machinery.
func TestCleanSweepAllVerified(t *testing.T) {
	c := testConfig(4)
	c.Benches = []workload.Kind{workload.Queue, workload.HashMap}
	c.Sweep = 8
	rep, err := Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Totals.Injections == 0 {
		t.Fatal("campaign injected nothing")
	}
	if rep.Totals.Verified != rep.Totals.Injections {
		t.Fatalf("clean sweep: %d/%d verified (failed %d, vulnerable %d, detected %d)",
			rep.Totals.Verified, rep.Totals.Injections,
			rep.Totals.Failed, rep.Totals.Vulnerable, rep.Totals.Detected)
	}
}

// TestFaultSweepNoExpectedSafeFailures: with every fault model on, no
// injection may land in the failed class — torn/ADR-loss damage on
// ADR-reliant schemes is vulnerable-or-detected (documented exposure),
// and corruption is verified-or-detected, never silently accepted.
func TestFaultSweepNoExpectedSafeFailures(t *testing.T) {
	c := testConfig(4)
	c.Benches = []workload.Kind{workload.Queue, workload.StringSwap}
	c.Sweep = 12
	c.Rand = 4
	c.Faults = AllFaults
	rep, err := Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range rep.Tuples {
		if tu.Failed != 0 {
			for _, ir := range tu.Injections {
				if ir.Outcome == OutcomeFailed {
					t.Errorf("%s/%s %s@%d failed: %s", tu.Bench, tu.Scheme, ir.Fault, ir.Cycle, ir.Detail)
				}
			}
		}
	}
	if rep.Totals.Detected == 0 {
		t.Error("no injection was detected as corruption; the torn/corrupt models are not reaching the integrity checks")
	}
}

// TestDeterministicReport: the report bytes are identical whether the
// engine runs 1 worker or 8 (satellite: campaign determinism).
func TestDeterministicReport(t *testing.T) {
	render := func(workers int) []byte {
		c := testConfig(workers)
		c.Benches = []workload.Kind{workload.Queue}
		c.Schemes = []core.Scheme{core.PMEM, core.Proteus}
		c.Sweep = 6
		c.Rand = 2
		c.Faults = AllFaults
		rep, err := Run(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := render(1)
	b := render(8)
	if !bytes.Equal(a, b) {
		t.Fatalf("report differs between 1 and 8 workers:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", a, b)
	}
}

// TestMinimizerProducesReproducer: a scheme that is not failure safe
// yields vulnerable injections; with MinimizeAll each gets bisected to an
// earlier-or-equal cycle and dumped as an artifact that replays to the
// same failure.
func TestMinimizerProducesReproducer(t *testing.T) {
	c := testConfig(4)
	c.Benches = []workload.Kind{workload.StringSwap}
	c.Schemes = []core.Scheme{core.PMEMNoLog}
	// Unprotected tearing is only visible inside a transaction's narrow
	// durability window, so the sweep must be dense to hit one.
	c.Sweep = 220
	c.Minimize = MinimizeAll
	c.ArtifactDir = t.TempDir()
	rep, err := Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	var min *Minimized
	for _, tu := range rep.Tuples {
		for _, ir := range tu.Injections {
			if ir.Outcome == OutcomeVulnerable {
				if ir.Minimized == nil {
					t.Fatalf("vulnerable injection at %d not minimized under MinimizeAll", ir.Cycle)
				}
				if min == nil {
					min = ir.Minimized
				}
				if ir.Minimized.Cycle > ir.Cycle {
					t.Fatalf("minimized cycle %d beyond original %d", ir.Minimized.Cycle, ir.Cycle)
				}
			}
		}
	}
	if min == nil {
		t.Fatal("PMEM+nolog never torn by the sweep; minimization untested (widen the sweep)")
	}
	if min.Artifact == "" || min.Repro == "" {
		t.Fatalf("minimized failure lacks artifact/repro: %+v", min)
	}
	if _, err := os.Stat(filepath.Join(min.Artifact, ImageFileName)); err != nil {
		t.Fatal(err)
	}

	var meta ArtifactMeta
	img, err := LoadArtifact(min.Artifact, &meta)
	if err != nil {
		t.Fatal(err)
	}
	res, err := meta.Replay(context.Background(), config.Default())
	if err != nil {
		t.Fatal(err)
	}
	// The replayed image must be byte-identical to the stored one.
	var rebuilt, stored bytes.Buffer
	if err := res.Image.Serialize(&rebuilt); err != nil {
		t.Fatal(err)
	}
	if err := img.Serialize(&stored); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rebuilt.Bytes(), stored.Bytes()) {
		t.Fatal("replayed crash image differs from the stored artifact image")
	}
	// And it must still exhibit the failure.
	verify := res.Oracle.VerifyPrefix
	if res.SW {
		verify = res.Oracle.VerifyPrefixSW
	}
	if _, err := verify(res.Image, res.Committed); err == nil {
		t.Fatal("minimized reproducer no longer fails verification")
	}
}

// TestParseFaults covers the CLI's fault-list parsing.
func TestParseFaults(t *testing.T) {
	fs, err := ParseFaults("torn,adrloss")
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 3 || fs[0] != FaultClean || fs[1] != FaultTorn || fs[2] != FaultADRLoss {
		t.Fatalf("parsed %v", fs)
	}
	if fs, _ = ParseFaults("all"); len(fs) != len(AllFaults) {
		t.Fatalf("all -> %v", fs)
	}
	if fs, _ = ParseFaults(""); len(fs) != 1 || fs[0] != FaultClean {
		t.Fatalf("empty -> %v", fs)
	}
	if _, err := ParseFaults("nope"); err == nil {
		t.Fatal("bad fault accepted")
	}
}

// TestShrinkMask drives the shrinker with synthetic predicates: a single
// culprit target comes back alone, a culprit pair comes back as the
// pair, and no run exceeds the evaluation budget.
func TestShrinkMask(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 64, 1000} {
		for _, culprit := range []int{0, n / 2, n - 1} {
			evals := 0
			got := shrinkMask(n, func(mask []int) bool {
				evals++
				return slices.Contains(mask, culprit)
			})
			if !slices.Equal(got, []int{culprit}) {
				t.Errorf("n=%d culprit=%d: shrunk to %v, want [%d]", n, culprit, got, culprit)
			}
			if evals > shrinkBudget {
				t.Errorf("n=%d culprit=%d: %d evaluations, budget %d", n, culprit, evals, shrinkBudget)
			}
		}
	}
	got := shrinkMask(16, func(mask []int) bool {
		return slices.Contains(mask, 3) && slices.Contains(mask, 12)
	})
	if !slices.Equal(got, []int{3, 12}) {
		t.Errorf("culprit pair: shrunk to %v, want [3 12]", got)
	}
	// A predicate that never holds exhausts the budget, never more.
	evals := 0
	shrinkMask(4096, func([]int) bool { evals++; return false })
	if evals != shrinkBudget {
		t.Errorf("never-bad predicate: %d evaluations, want the full budget %d", evals, shrinkBudget)
	}
}
