package litmus

import (
	"bytes"
	"context"
	"testing"
)

// The report is the CI gate's ground truth, so its bytes must not depend
// on scheduling: the same (config, seed) produces the identical report at
// any worker count. (The fast stepper's agreement with the per-cycle
// reference stepper is checked at every cycle of a litmus program in
// core's TestFastForwardCrashPointEquivalence.)
func TestReportBytesAreDeterministic(t *testing.T) {
	render := func(workers int) []byte {
		rep, err := Run(context.Background(), Config{
			Programs: Curated(),
			Seed:     42,
			Workers:  workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	base := render(1)
	for _, workers := range []int{5, 8} {
		if got := render(workers); !bytes.Equal(got, base) {
			t.Fatalf("report bytes differ for workers=%d (len %d vs %d)", workers, len(got), len(base))
		}
	}
}

// The full grammar must also sweep clean; this is the slow exhaustive
// pass behind the curated gate.
func TestFullGrammarSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full 398-program sweep skipped in -short mode")
	}
	rep, err := Run(context.Background(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Suite.Programs != 398 {
		t.Fatalf("swept %d programs, want the full 398-program grammar", rep.Suite.Programs)
	}
	if rep.Totals.Failed != 0 || rep.Totals.Divergences != 0 {
		for _, c := range rep.Cases {
			for _, d := range c.Divergences {
				t.Errorf("divergence %s/%s %s@%d: %s", c.Program, c.Scheme, d.Fault, d.Cycle, d.Detail)
			}
		}
		t.Fatalf("full sweep: %d failed, %d divergences", rep.Totals.Failed, rep.Totals.Divergences)
	}
}
