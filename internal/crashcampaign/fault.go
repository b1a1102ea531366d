// Package crashcampaign is the simulator's crash-injection kernel and its
// campaign point generator.
//
// The kernel (Injection, Case, Classify, the mask shrinker and the
// reproducer artifact format) applies a power-failure fault model to a
// machine state, runs the scheme's recovery over the crash image, judges
// the recovered image with a generator-supplied verifier, and classifies
// the injection against the expectation matrix the schemes' ordering
// axioms declare. Two point generators drive it: campaigns (Run) sweep
// crash points across (benchmark, scheme) tuples and verify against the
// recovery oracle's transaction-prefix property; the litmus harness
// (package litmus) visits every persist state of tiny programs and
// verifies against the axiomatic window.
//
// A campaign minimizes expected-safe failures — the crash point is
// bisected to the earliest failing cycle and the fault mask shrunk — and
// dumps them as ready-to-replay reproducer artifacts. Everything it
// computes is deterministic in (config, seed): crash points,
// per-injection randomness, result order, and the report bytes are
// identical no matter how many engine workers execute the sweep.
package crashcampaign

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/memctrl"
	"repro/internal/nvm"
)

// Fault is a power-failure fault model.
type Fault int

const (
	// FaultClean is a nominal power cut: the scheme's persistency domain
	// (ADR queues included where the platform has them) drains intact.
	FaultClean Fault = iota
	// FaultTorn tears pending line writes: only a prefix of the 8-byte
	// words of each affected 64-byte line reaches NVM. Under ADR this
	// breaks the platform's drain guarantee; without ADR it models device
	// writes interrupted mid-line.
	FaultTorn
	// FaultADRLoss drops the WPQ/LPQ contents a scheme's ADR domain was
	// supposed to drain (a failed backup capacitor).
	FaultADRLoss
	// FaultCorrupt flips one bit in every affected materialized log-area
	// line of the clean crash image. Recovery must either still produce a
	// verified state or report the corruption — never silently apply it.
	FaultCorrupt
)

var faultNames = map[Fault]string{
	FaultClean:   "clean",
	FaultTorn:    "torn",
	FaultADRLoss: "adrloss",
	FaultCorrupt: "corrupt",
}

func (f Fault) String() string {
	if n, ok := faultNames[f]; ok {
		return n
	}
	return fmt.Sprintf("Fault(%d)", int(f))
}

// AllFaults lists every model in campaign order.
var AllFaults = []Fault{FaultClean, FaultTorn, FaultADRLoss, FaultCorrupt}

// FaultByName resolves a fault model by its name (clean, torn, adrloss,
// corrupt).
func FaultByName(name string) (Fault, error) {
	for _, f := range AllFaults {
		if faultNames[f] == name {
			return f, nil
		}
	}
	return 0, fmt.Errorf("crashcampaign: unknown fault %q (have clean, torn, adrloss, corrupt, all)", name)
}

// ParseFaults parses a comma-separated fault list ("torn,adrloss", or
// "all") into NormalizeFaults order.
func ParseFaults(s string) ([]Fault, error) {
	var out []Fault
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		switch name {
		case "":
		case "all":
			out = append(out, AllFaults...)
		default:
			f, err := FaultByName(name)
			if err != nil {
				return nil, err
			}
			out = append(out, f)
		}
	}
	return NormalizeFaults(out), nil
}

// NormalizeFaults deduplicates a fault list into model order with
// FaultClean always first: the clean sweep is the baseline every sweep
// needs.
func NormalizeFaults(faults []Fault) []Fault {
	seen := map[Fault]bool{FaultClean: true}
	out := []Fault{FaultClean}
	for _, f := range faults {
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// QueuesLost reports whether the fault defeats the platform's ADR drain
// of the controller queues — torn queue writes and capacitor loss do, a
// clean cut and log corruption do not.
func (f Fault) QueuesLost() bool { return f == FaultTorn || f == FaultADRLoss }

// ExpectSafe reports whether the (scheme, fault) combination is expected
// to satisfy the durable-transaction property, derived from the scheme's
// declared ordering axioms: torn and ADR-loss faults break the ADR drain,
// so only a scheme whose rules never relied on it (QueueDrain false,
// i.e. PMEM+pcommit) is expected to survive them. FaultCorrupt is never
// "safe" in this sense: its contract is verified-or-detected, which the
// classifier handles separately.
func ExpectSafe(s core.Scheme, f Fault) bool {
	if !s.FailureSafe() || f == FaultCorrupt {
		return false
	}
	return s.Ordering().ExpectSafe(f.QueuesLost())
}

// AppliesTo reports whether injecting the fault into the scheme is
// meaningful. ADR loss is a no-op for a scheme whose persistency domain
// never included the queues (QueueDrain false in its ordering rules).
func (f Fault) AppliesTo(s core.Scheme) bool {
	if f == FaultADRLoss {
		return s.Ordering().QueueDrain
	}
	return true
}

// mix hashes words into a well-distributed 64-bit value (splitmix64
// finalization). Per-line fault decisions hash (seed, line identity)
// statelessly, so shrinking a fault mask never shifts the randomness of
// the lines that remain.
func mix(vals ...uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, v := range vals {
		h ^= v + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)
		h ^= h >> 30
		h *= 0xBF58476D1CE4E5B9
	}
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

// SeedFor derives a per-injection fault seed from a sweep seed and the
// injection's identity (subject, scheme, fault, cycle).
func SeedFor(campaignSeed int64, parts ...string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d", campaignSeed)
	for _, p := range parts {
		h.Write([]byte{0})
		h.Write([]byte(p))
	}
	return h.Sum64()
}

// Injection is one fault applied at a crash state. Seed feeds the
// stateless per-line fault randomness; Mask, when non-nil, restricts the
// fault to the listed target indexes (pending-line index for torn,
// sorted-log-line index for corrupt) — nil faults every target. The
// shrinker narrows it.
type Injection struct {
	Fault Fault
	Seed  uint64
	Mask  []int
}

func maskSet(mask []int) map[int]bool {
	if mask == nil {
		return nil
	}
	m := make(map[int]bool, len(mask))
	for _, i := range mask {
		m[i] = true
	}
	return m
}

// tornWords returns how many leading 8-byte words of pending line idx
// persist under the injection's seed: always a strict prefix (0..7), so
// every selected line genuinely tears.
func tornWords(seed uint64, idx int) int {
	return int(mix(seed, 0x7047, uint64(idx)) % 8)
}

// logLines returns the materialized log-area lines of the image across
// all threads, in ascending address order — the corrupt fault's target
// list.
func logLines(img *nvm.Store, threads int) []uint64 {
	var out []uint64
	for t := 0; t < threads; t++ {
		base, limit := isa.LogWindow(t)
		out = append(out, img.LinesIn(base, limit)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Image extracts the crash image the injection leaves behind at the
// system's current state. The system is neither advanced nor mutated, so
// one state can be injected any number of times.
func (inj Injection) Image(sys *core.System, threads int) *nvm.Store {
	switch inj.Fault {
	case FaultClean:
		return sys.CrashImage()
	case FaultADRLoss:
		return sys.CrashImageWith(memctrl.CrashFault{ADR: false})
	case FaultTorn:
		sel := maskSet(inj.Mask)
		return sys.CrashImageWith(memctrl.CrashFault{
			ADR: sys.ADR(),
			Torn: func(idx int, addr uint64) int {
				if sel != nil && !sel[idx] {
					return 8 // not selected: the whole line persists
				}
				return tornWords(inj.Seed, idx)
			},
		})
	case FaultCorrupt:
		img := sys.CrashImage()
		sel := maskSet(inj.Mask)
		for i, addr := range logLines(img, threads) {
			if sel != nil && !sel[i] {
				continue
			}
			bit := mix(inj.Seed, 0xC0FF, addr) % (isa.LineSize * 8)
			line := img.Read(addr, isa.LineSize)
			line[bit/8] ^= 1 << (bit % 8)
			img.Write(addr, line)
		}
		return img
	}
	return sys.CrashImage()
}

// Targets returns the size of the fault's target universe at the
// system's current state — the index space a Mask selects from (pending
// lines for torn, materialized log lines for corrupt, 0 for the rest).
func (inj Injection) Targets(sys *core.System, threads int) int {
	switch inj.Fault {
	case FaultTorn:
		return len(sys.PendingLines(sys.ADR()))
	case FaultCorrupt:
		return len(logLines(sys.CrashImage(), threads))
	}
	return 0
}
