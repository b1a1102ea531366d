package litmus

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/crashcampaign"
)

// ArtifactMeta is the replay descriptor of a litmus reproducer: enough
// to re-check the divergence without re-running the simulator — the
// faulted crash image is stored alongside, and the program, scheme, and
// committed counts reconstruct the axiomatic window exactly.
type ArtifactMeta struct {
	Type      string `json:"type"` // always "litmus"
	Program   string `json:"program"`
	Scheme    string `json:"scheme"`
	Fault     string `json:"fault"`
	Cycle     uint64 `json:"cycle"`
	Seed      uint64 `json:"seed"`
	Mask      []int  `json:"mask,omitempty"`
	Committed []int  `json:"committed"`
	Outcome   string `json:"outcome"`
	Detail    string `json:"detail,omitempty"`
	// Image names the serialized faulted crash image in the artifact
	// directory (the kernel's ImageFileName).
	Image string `json:"image"`
}

// writeArtifact dumps one divergence of the program as a replayable
// reproducer in the kernel's artifact format. The injection is re-applied
// to the live system — Image is pure, so the stored image is exactly the
// one the classifier judged.
func writeArtifact(c *Config, program string, kc crashcampaign.Case, sys *core.System, inj crashcampaign.Injection, committed []int, outcome crashcampaign.Outcome, detail string) (dir, repro string, err error) {
	dir = crashcampaign.ArtifactDir(c.ArtifactDir, program, kc.Scheme, inj.Fault, sys.Cycle())
	meta := ArtifactMeta{
		Type:      "litmus",
		Program:   program,
		Scheme:    kc.Scheme.String(),
		Fault:     inj.Fault.String(),
		Cycle:     sys.Cycle(),
		Seed:      inj.Seed,
		Mask:      inj.Mask,
		Committed: committed,
		Outcome:   string(outcome),
		Detail:    detail,
		Image:     crashcampaign.ImageFileName,
	}
	if err := crashcampaign.WriteArtifact(dir, inj.Image(sys, kc.Threads), &meta); err != nil {
		return "", "", err
	}
	return dir, fmt.Sprintf("%s -replay %s", c.ReplayCmd, dir), nil
}

// ReplayResult is the outcome of re-checking a reproducer.
type ReplayResult struct {
	Meta    *ArtifactMeta
	Outcome crashcampaign.Outcome
	Detail  string
	// Reproduced reports whether the re-check classified the image the
	// same way the original sweep did.
	Reproduced bool
}

// Replay re-runs recovery and the axiomatic check over a reproducer's
// stored crash image. No simulation happens: the image already carries
// the fault, and the stored committed counts pin the axiomatic window.
func Replay(dir string) (*ReplayResult, error) {
	var m ArtifactMeta
	img, err := crashcampaign.LoadArtifact(dir, &m)
	if err != nil {
		return nil, err
	}
	if m.Type != "litmus" {
		return nil, fmt.Errorf("litmus: artifact %s has type %q, want litmus", dir, m.Type)
	}
	prog, err := Parse(m.Program)
	if err != nil {
		return nil, err
	}
	scheme, err := core.SchemeByName(m.Scheme)
	if err != nil {
		return nil, err
	}
	fault, err := crashcampaign.FaultByName(m.Fault)
	if err != nil {
		return nil, err
	}
	compiled, err := prog.Compile()
	if err != nil {
		return nil, err
	}
	if len(m.Committed) != len(prog.Threads) {
		return nil, fmt.Errorf("litmus: artifact has %d committed counts for %d threads", len(m.Committed), len(prog.Threads))
	}
	kc := crashcampaign.Case{Scheme: scheme, Threads: len(prog.Threads), Verify: newChecker(compiled, scheme).permitted}
	outcome, detail := kc.Classify(img, fault, m.Committed)
	return &ReplayResult{
		Meta:       &m,
		Outcome:    outcome,
		Detail:     detail,
		Reproduced: string(outcome) == m.Outcome,
	}, nil
}
