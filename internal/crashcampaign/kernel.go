package crashcampaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/nvm"
	"repro/internal/recovery"
)

// Case is one (subject, scheme) pair under injection: the scheme whose
// recovery runs over every crash image, the machine's thread count, and
// the point generator's verifier.
type Case struct {
	Scheme  core.Scheme
	Threads int
	// Verify checks a recovered image against the post-crash states the
	// generator's model permits when thread t had committed[t] whole
	// transactions at the crash: the oracle's transaction-prefix check
	// for campaigns, the axiomatic window for litmus programs.
	Verify func(img *nvm.Store, committed []int) error
}

// Classify runs the scheme's recovery over the crash image and maps the
// result through the expectation matrix. A recovery error is failed
// unless it is a typed corruption report on a run outside the scheme's
// guarantees from a scheme that declares corruption detection (detected).
// Otherwise the verifier decides: a mismatch is failed for expected-safe
// combinations and for silently accepted log corruption, vulnerable for
// the rest.
func (c Case) Classify(img *nvm.Store, fault Fault, committed []int) (Outcome, string) {
	if _, rerr := recovery.Recover(img, c.Scheme, c.Threads); rerr != nil {
		switch {
		case !recovery.IsDetectedCorruption(rerr):
			return OutcomeFailed, "recovery error: " + rerr.Error()
		case fault == FaultClean || ExpectSafe(c.Scheme, fault):
			// Nominal operation (or a fault inside the scheme's
			// guarantees) must never leave a log recovery rejects.
			return OutcomeFailed, "corruption detected in expected-safe run: " + rerr.Error()
		case !c.Scheme.Ordering().DetectsCorruption:
			return OutcomeFailed, "scheme declares no corruption detection yet reported: " + rerr.Error()
		}
		return OutcomeDetected, rerr.Error()
	}
	if verr := c.Verify(img, committed); verr != nil {
		switch {
		case ExpectSafe(c.Scheme, fault):
			return OutcomeFailed, verr.Error()
		case fault == FaultCorrupt && c.Scheme.FailureSafe():
			// Recovery accepted a corrupted log and produced a wrong
			// state: the one outcome the integrity layer (the
			// DetectsCorruption axiom) exists to prevent.
			return OutcomeFailed, "silent corruption accepted: " + verr.Error()
		default:
			return OutcomeVulnerable, verr.Error()
		}
	}
	return OutcomeVerified, ""
}

// Inject applies the injection at the system's current state and
// classifies the crash image it leaves; committed is
// CommittedCounts(sys).
func (c Case) Inject(sys *core.System, inj Injection, committed []int) (Outcome, string) {
	return c.Classify(inj.Image(sys, c.Threads), inj.Fault, committed)
}

// Reduce shrinks the injection's fault mask at the system's current state
// to a small target subset that still reproduces orig, then reclassifies
// the reduced injection there. It returns the reduced injection, the
// size of the target universe, and the final classification. Faults
// without targets come back unchanged.
func (c Case) Reduce(sys *core.System, inj Injection, committed []int, orig Outcome) (Injection, int, Outcome, string) {
	n := inj.Targets(sys, c.Threads)
	if n > 0 {
		inj.Mask = shrinkMask(n, func(mask []int) bool {
			trial := inj
			trial.Mask = mask
			got, _ := c.Inject(sys, trial, committed)
			return badFor(orig, got)
		})
	}
	out, detail := c.Inject(sys, inj, committed)
	return inj, n, out, detail
}

// badFor reports whether a re-evaluated outcome still exhibits the
// failure being reduced. A vulnerable injection that upgrades to failed
// still reproduces.
func badFor(orig, got Outcome) bool {
	return got == OutcomeFailed || (orig == OutcomeVulnerable && got == OutcomeVulnerable)
}

// shrinkBudget caps predicate evaluations during mask shrinking, so
// reduction cost is bounded and deterministic.
const shrinkBudget = 40

// shrinkMask greedily removes chunks of the [0, n) target mask while
// stillBad holds (a ddmin-style pass with a fixed evaluation budget). A
// single culprit target comes back alone.
func shrinkMask(n int, stillBad func(mask []int) bool) []int {
	mask := make([]int, n)
	for i := range mask {
		mask[i] = i
	}
	budget := shrinkBudget
	gran := 2
	for len(mask) >= 2 && budget > 0 {
		chunk := (len(mask) + gran - 1) / gran
		reduced := false
		for start := 0; start < len(mask) && budget > 0; start += chunk {
			end := start + chunk
			if end > len(mask) {
				end = len(mask)
			}
			cand := make([]int, 0, len(mask)-(end-start))
			cand = append(cand, mask[:start]...)
			cand = append(cand, mask[end:]...)
			budget--
			if stillBad(cand) {
				mask = cand
				if gran > 2 {
					gran--
				}
				reduced = true
				break
			}
		}
		if !reduced {
			if gran >= len(mask) {
				break
			}
			gran *= 2
			if gran > len(mask) {
				gran = len(mask)
			}
		}
	}
	return mask
}

// CommittedCounts returns each thread's retired transaction count at the
// system's current state — the commit horizon every verifier judges a
// crash image against.
func CommittedCounts(sys *core.System) []int {
	commits := sys.Commits()
	counts := make([]int, len(commits))
	for i, cs := range commits {
		counts[i] = len(cs)
	}
	return counts
}

// ImageFileName is the serialized crash image inside an artifact dir.
const ImageFileName = "image.nvmimg"

// MetaFileName is the replay descriptor inside an artifact dir.
const MetaFileName = "meta.json"

// ArtifactDir names the reproducer directory under root for one
// injection of a subject (benchmark or litmus program) under a scheme.
func ArtifactDir(root, subject string, scheme core.Scheme, fault Fault, cycle uint64) string {
	return filepath.Join(root, fmt.Sprintf("%s-%s-%s-c%d", sanitize(subject), sanitize(scheme.String()), fault, cycle))
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			return r
		case r == '+':
			return 'p'
		default:
			return '_'
		}
	}, strings.ToLower(s))
}

// WriteArtifact dumps a reproducer directory: the faulted (pre-recovery)
// crash image and the point generator's replay descriptor, marshaled as
// indented JSON.
func WriteArtifact(dir string, img *nvm.Store, meta any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("crashcampaign: artifact dir: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, ImageFileName))
	if err != nil {
		return err
	}
	if err := img.Serialize(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, MetaFileName), append(b, '\n'), 0o644)
}

// LoadArtifact reads a reproducer directory: the replay descriptor into
// meta, and the stored crash image.
func LoadArtifact(dir string, meta any) (*nvm.Store, error) {
	b, err := os.ReadFile(filepath.Join(dir, MetaFileName))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, meta); err != nil {
		return nil, fmt.Errorf("crashcampaign: parsing %s: %w", filepath.Join(dir, MetaFileName), err)
	}
	f, err := os.Open(filepath.Join(dir, ImageFileName))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	img, err := nvm.ReadSerialized(f)
	if err != nil {
		return nil, fmt.Errorf("crashcampaign: reading %s: %w", filepath.Join(dir, ImageFileName), err)
	}
	return img, nil
}
