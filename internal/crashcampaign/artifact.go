package crashcampaign

import (
	"context"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/logging"
	"repro/internal/nvm"
	"repro/internal/recovery"
	"repro/internal/workload"
)

// ArtifactMeta is everything needed to replay a minimized failure from
// scratch: the workload identity and parameters, the fault and its seed,
// the crash cycle, and the shrunk fault mask. proteus-recover's -campaign
// flag consumes it.
type ArtifactMeta struct {
	Bench             string          `json:"bench"`
	Scheme            string          `json:"scheme"`
	Params            workload.Params `json:"params"`
	ConfigFingerprint string          `json:"config_fingerprint"`
	CampaignSeed      int64           `json:"campaign_seed"`
	Fault             string          `json:"fault"`
	FaultSeed         uint64          `json:"fault_seed"`
	Cycle             uint64          `json:"cycle"`
	OriginalCycle     uint64          `json:"original_cycle"`
	Mask              []int           `json:"mask,omitempty"`
	Committed         []int           `json:"committed"`
	Outcome           Outcome         `json:"outcome"`
	Detail            string          `json:"detail,omitempty"`
	Image             string          `json:"image"`
}

// ReplayResult is the rebuilt pre-recovery state of an artifact (or of a
// manual injection): the faulted crash image plus everything the caller
// needs to run recovery and verify it.
type ReplayResult struct {
	Image     *nvm.Store
	Committed []int
	Oracle    *recovery.Oracle
	Scheme    core.Scheme
	SW        bool
	Threads   int
}

// Replay re-runs the artifact's injection from scratch under sim (which
// should match the recorded config fingerprint; the caller is told if it
// does not) and returns the faulted image ready for recovery.
func (a *ArtifactMeta) Replay(ctx context.Context, sim config.Config) (*ReplayResult, error) {
	kind, err := workload.KindByName(a.Bench)
	if err != nil {
		return nil, err
	}
	scheme, err := core.SchemeByName(a.Scheme)
	if err != nil {
		return nil, err
	}
	fault, err := FaultByName(a.Fault)
	if err != nil {
		return nil, err
	}
	sim.Cores = a.Params.Threads
	wl, err := workload.Build(kind, a.Params)
	if err != nil {
		return nil, err
	}
	traces, err := logging.Generate(wl, scheme, sim)
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(sim, scheme, traces, wl.InitImage)
	if err != nil {
		return nil, err
	}
	stepTo(sys, a.Cycle)
	inj := Injection{Fault: fault, Seed: a.FaultSeed, Mask: a.Mask}
	return &ReplayResult{
		Image:     inj.Image(sys, sim.Cores),
		Committed: CommittedCounts(sys),
		Oracle:    recovery.NewOracle(wl),
		Scheme:    scheme,
		SW:        softwareLogged(scheme),
		Threads:   sim.Cores,
	}, nil
}
