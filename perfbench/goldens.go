package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strconv"
)

// goldens holds the expected outputs per workload and seed. Figure tables
// are kept as printed; campaign and litmus reports, which run to
// megabytes, as the SHA-256 of their canonical JSON. A seed with no entry
// is checked by invariants only (no failed injection, no divergence,
// every table cell present, passes agreeing byte for byte).
type goldens struct {
	// DefaultSeed is the seed the benchmark is tuned and reported on;
	// HeldOutSeed is one nobody tunes on, for re-checking a claim.
	DefaultSeed int64             `json:"default_seed"`
	HeldOutSeed int64             `json:"held_out_seed"`
	Figures     map[string]string `json:"figures"`
	Campaign    map[string]string `json:"campaign"`
	Litmus      map[string]string `json:"litmus"`
}

func loadGoldens(path string) (*goldens, error) {
	g := &goldens{DefaultSeed: 42, HeldOutSeed: 1009}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("goldens: %s is missing (run from the repository root)", path)
	}
	if err != nil {
		return nil, fmt.Errorf("goldens: %w", err)
	}
	if err := json.Unmarshal(data, g); err != nil {
		return nil, fmt.Errorf("goldens: %s: %w", path, err)
	}
	for _, t := range []*map[string]string{&g.Figures, &g.Campaign, &g.Litmus} {
		if *t == nil {
			*t = map[string]string{}
		}
	}
	return g, nil
}

func (g *goldens) save(path string) error {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func (g *goldens) table(workload string) map[string]string {
	switch workload {
	case "figures":
		return g.Figures
	case "campaign":
		return g.Campaign
	case "litmus":
		return g.Litmus
	}
	return nil
}

// forSeed returns the golden for the workload and seed. The serve
// workload needs none: it checks repeats against first answers and the
// ledger against the store.
func (g *goldens) forSeed(workload string, seed int64) (string, bool) {
	if workload == "serve" {
		return "", true
	}
	v, ok := g.table(workload)[strconv.FormatInt(seed, 10)]
	return v, ok
}

// checkGolden compares one pass's output with the golden for the run's
// seed, or, without one, with the run's first pass.
func (r *run) checkGolden(got string, first *string) {
	if want, ok := r.goldens.forSeed(r.workload, r.seed); ok {
		r.check(got == want, "output for seed %d differs from the golden (got %.80q)", r.seed, got)
		return
	}
	if *first == "" {
		*first = got
		return
	}
	r.check(got == *first, "output differs between passes of one run")
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// regenerate recomputes the workload's goldens for the seeds. It is for a
// change that moves modeled results on purpose; such a change says why
// in CHANGES.md. A seed whose output fails its own checks gets no golden.
func regenerate(g *goldens, workload string, seeds []int64) error {
	ctx := context.Background()
	for _, seed := range seeds {
		var out string
		switch workload {
		case "figures":
			text, _, err := figuresPass(ctx, seed, nil)
			if err != nil {
				return err
			}
			out = text
		case "campaign":
			rep, err := campaignPass(ctx, seed)
			if err != nil {
				return err
			}
			if rep.Totals.Failed != 0 {
				fmt.Fprintf(os.Stderr, "perfbench: campaign seed %d: %d failed injections; no golden written\n", seed, rep.Totals.Failed)
				continue
			}
			if out, err = reportDigest(func(b *bytes.Buffer) error { return rep.WriteJSON(b) }); err != nil {
				return err
			}
		case "litmus":
			rep, err := litmusPass(ctx, seed)
			if err != nil {
				return err
			}
			if rep.Totals.Failed != 0 || rep.Totals.Divergences != 0 {
				fmt.Fprintf(os.Stderr, "perfbench: litmus seed %d: %d failed, %d divergences; no golden written\n",
					seed, rep.Totals.Failed, rep.Totals.Divergences)
				continue
			}
			if out, err = reportDigest(func(b *bytes.Buffer) error { return rep.WriteJSON(b) }); err != nil {
				return err
			}
		default:
			return fmt.Errorf("workload %s has no goldens", workload)
		}
		g.table(workload)[strconv.FormatInt(seed, 10)] = out
		fmt.Fprintf(os.Stderr, "perfbench: %s golden for seed %d written\n", workload, seed)
	}
	return nil
}
