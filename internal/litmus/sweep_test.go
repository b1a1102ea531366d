package litmus

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/crashcampaign"
	"repro/internal/logging"
)

// The curated subset is the CI gate: every failure-safe scheme, every
// fault model, zero divergences. A failure here means the simulator, the
// recovery path, and the declared ordering axioms no longer agree.
func TestCuratedSweepIsDivergenceFree(t *testing.T) {
	rep, err := Run(context.Background(), Config{Programs: Curated()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Totals.Failed != 0 || rep.Totals.Divergences != 0 {
		for _, c := range rep.Cases {
			for _, d := range c.Divergences {
				t.Errorf("divergence %s/%s %s@%d: %s", c.Program, c.Scheme, d.Fault, d.Cycle, d.Detail)
			}
		}
		t.Fatalf("curated sweep: %d failed, %d divergences", rep.Totals.Failed, rep.Totals.Divergences)
	}
	if rep.Totals.Verified == 0 || rep.Totals.Detected == 0 || rep.Totals.Vulnerable == 0 {
		t.Fatalf("curated sweep lacks outcome coverage: %+v", rep.Totals)
	}
	wantCases := len(Curated()) * len(rep.Suite.Schemes)
	if rep.Totals.Cases != wantCases {
		t.Fatalf("swept %d cases, want %d", rep.Totals.Cases, wantCases)
	}
	for _, c := range rep.Cases {
		if c.States < 2 {
			t.Errorf("case %s/%s classified only %d persist states", c.Program, c.Scheme, c.States)
		}
		if c.Injections == 0 {
			t.Errorf("case %s/%s ran no injections", c.Program, c.Scheme)
		}
	}
}

// Regression for the out-of-order log-flush departure bug this harness
// found (DESIGN.md "Litmus harness"): a younger transaction's log entry
// used to reach the memory controller before an older transaction's
// entries whenever the younger log-load hit in cache while the older ones
// missed to NVM. A crash in that window left the durable log holding only
// the younger undo entry, whose pre-image is the older transaction's
// *volatile* output — recovery then rolled the variable to a value that
// never persisted. The two-transaction single-thread programs below are
// the minimal reproducers; Proteus is swept with and without log write
// removal.
func TestLogFlushDepartsInOrderRegression(t *testing.T) {
	var progs []Program
	for _, name := range []string{"Pc:xyx;y", "Ps:xy;xy", "Pc:x;y"} {
		p, err := Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	rep, err := Run(context.Background(), Config{
		Programs: progs,
		Schemes:  []core.Scheme{core.Proteus, core.ProteusNoLWR},
		Faults:   []crashcampaign.Fault{crashcampaign.FaultClean},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Cases {
		for _, d := range c.Divergences {
			t.Errorf("reintroduced divergence %s/%s %s@%d: %s", c.Program, c.Scheme, d.Fault, d.Cycle, d.Detail)
		}
	}
	if rep.Totals.Failed != 0 {
		t.Fatalf("clean-fault sweep failed %d injections", rep.Totals.Failed)
	}
}

// A checker must reject states the axioms forbid: feed it the init image
// with a committed count claiming one transaction retired, which no
// commit-lag window can explain away once the count exceeds the lag.
func TestCheckerRejectsImpossibleState(t *testing.T) {
	p, err := Parse("Ps:x;y")
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ck := newChecker(c, core.Proteus)
	if err := ck.permitted(c.WL.InitImage, []int{0}); err != nil {
		t.Fatalf("init image with committed=0 must be permitted: %v", err)
	}
	if err := ck.permitted(c.WL.InitImage, []int{2}); err == nil {
		t.Fatal("init image with committed=2 must be rejected")
	}
}

// roundTripArtifact runs Pc:x;y under Proteus to completion and dumps a
// torn-fault reproducer of the final state into a fresh directory. It
// returns the directory, the repro command line, and the outcome the
// sweep's classifier gave the image.
func roundTripArtifact(t *testing.T) (dir, repro string, outcome crashcampaign.Outcome, detail string) {
	t.Helper()
	p, err := Parse("Pc:x;y")
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	scheme := core.Proteus
	cfg := SimConfig(1)
	traces, err := logging.Generate(compiled.WL, scheme, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(cfg, scheme, traces, compiled.WL.InitImage)
	if err != nil {
		t.Fatal(err)
	}
	for !sys.Finished() {
		sys.Step(10000)
	}
	conf := &Config{ArtifactDir: t.TempDir(), ReplayCmd: "proteus-litmus"}
	kc := crashcampaign.Case{Scheme: scheme, Threads: 1, Verify: newChecker(compiled, scheme).permitted}
	inj := crashcampaign.Injection{
		Fault: crashcampaign.FaultTorn,
		Seed:  crashcampaign.SeedFor(7, "roundtrip"),
	}
	committed := crashcampaign.CommittedCounts(sys)
	outcome, detail = kc.Inject(sys, inj, committed)
	dir, repro, err = writeArtifact(conf, p.Name(), kc, sys, inj, committed, outcome, detail)
	if err != nil {
		t.Fatal(err)
	}
	return dir, repro, outcome, detail
}

func TestArtifactReplayRoundtrip(t *testing.T) {
	dir, repro, outcome, detail := roundTripArtifact(t)
	if !strings.Contains(repro, "proteus-litmus -replay ") {
		t.Fatalf("repro command %q lacks the replay invocation", repro)
	}
	res, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reproduced {
		t.Fatalf("replay classified %s (%s), sweep recorded %s (%s)", res.Outcome, res.Detail, outcome, detail)
	}
	if res.Meta.Program != "Pc:x;y" || res.Meta.Scheme != core.Proteus.String() || res.Meta.Fault != crashcampaign.FaultTorn.String() {
		t.Fatalf("artifact meta mismatch: %+v", res.Meta)
	}
}

func TestRunRespectsContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, Config{Programs: Curated()}); err == nil {
		t.Fatal("cancelled sweep must return an error")
	}
}
