// Command proteus-recover demonstrates the crash-injection and recovery
// machinery: it runs a workload under a failure-safe scheme, cuts power
// at a chosen point — optionally through a fault model (torn line writes,
// ADR loss, log corruption) — extracts the persistent image, runs
// recovery, and verifies transaction atomicity against the oracle.
//
// On an oracle failure it prints a per-thread mismatch summary and exits
// nonzero. A detected (and reported) log corruption exits zero: refusing
// a damaged log is the correct recovery outcome.
//
// Examples:
//
//	proteus-recover -bench RT -scheme Proteus -at 0.6
//	proteus-recover -bench QE -scheme PMEM -at-cycle 4242 -fault torn
//	proteus-recover -bench HM -scheme ATOM -adr=false
//	proteus-recover -campaign artifacts/ss-pmemnolog-clean-c984/meta.json
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/crashcampaign"
	"repro/internal/logging"
	"repro/internal/recovery"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		benchName  = flag.String("bench", "RT", "benchmark: QE, HM, SS, AT, BT, RT")
		schemeName = flag.String("scheme", "Proteus", "failure-safe scheme: PMEM, PMEM+pcommit, ATOM, Proteus, Proteus+NoLWR")
		at         = flag.Float64("at", 0.5, "crash point as a fraction of the full run")
		atCycle    = flag.Int64("at-cycle", -1, "crash at this exact cycle (overrides -at)")
		adr        = flag.Bool("adr", true, "queues are in the persistency domain; -adr=false injects ADR loss")
		faultName  = flag.String("fault", "", "fault model at the crash: torn, adrloss, corrupt (default clean)")
		faultSeed  = flag.Uint64("fault-seed", 0, "per-line fault randomness seed (0 derives one from the workload seed)")
		faultMask  = flag.String("fault-mask", "", "comma-separated target indexes the fault is limited to (default all)")
		threads    = flag.Int("threads", 2, "worker threads / cores")
		simOps     = flag.Int("simops", 64, "timed operations per thread")
		seed       = flag.Int64("seed", 42, "workload seed")
		campaign   = flag.String("campaign", "", "replay a crash-campaign reproducer from its meta.json (overrides every other flag)")
		traceOut   = flag.String("trace", "", "write an epoch-sampled JSONL trace of the full (pre-crash) run to this file")
		traceEpoch = flag.Uint64("trace-epoch", trace.DefaultEpoch, "cycles between trace samples")
	)
	flag.Parse()
	ctx := context.Background()
	cfg := config.Default()

	if *campaign != "" {
		var meta crashcampaign.ArtifactMeta
		stored, err := crashcampaign.LoadArtifact(filepath.Dir(*campaign), &meta)
		exitOn(err)
		fmt.Printf("replaying %s/%s %s@%d (campaign seed %d)\n",
			meta.Bench, meta.Scheme, meta.Fault, meta.Cycle, meta.CampaignSeed)
		cfg.Cores = meta.Params.Threads
		if fp := cfg.Fingerprint(); fp != meta.ConfigFingerprint {
			fmt.Printf("warning: config fingerprint %s differs from recorded %s; the replay may diverge\n",
				fp, meta.ConfigFingerprint)
		}
		res, err := meta.Replay(ctx, cfg)
		exitOn(err)
		var rebuilt, want bytes.Buffer
		exitOn(res.Image.Serialize(&rebuilt))
		exitOn(stored.Serialize(&want))
		if bytes.Equal(rebuilt.Bytes(), want.Bytes()) {
			fmt.Println("rebuilt crash image matches the stored artifact image")
		} else {
			fmt.Println("warning: rebuilt crash image differs from the stored artifact image")
		}
		os.Exit(recoverAndVerify(res))
	}

	kind, err := workload.KindByName(*benchName)
	exitOn(err)
	scheme, err := core.SchemeByName(*schemeName)
	exitOn(err)
	if !scheme.FailureSafe() {
		exitOn(fmt.Errorf("scheme %q is not a failure-safe scheme", *schemeName))
	}

	p := kind.DefaultParams(1)
	p.Threads = *threads
	p.SimOps = *simOps
	p.InitOps /= 10
	p.Seed = *seed
	cfg.Cores = *threads

	fmt.Printf("building %v (%d threads, %d txns each)...\n", kind, p.Threads, p.SimOps)
	w, err := workload.Build(kind, p)
	exitOn(err)
	traces, err := logging.Generate(w, scheme, cfg)
	exitOn(err)

	// Learn the full run length. The optional trace records this run, so
	// the timeline shows the queue state around any candidate crash point.
	full, err := core.NewSystem(cfg, scheme, traces, w.InitImage)
	exitOn(err)
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		exitOn(err)
		meta := trace.Meta{Label: fmt.Sprintf("%v/%v/recover", kind, scheme), Fingerprint: cfg.Fingerprint(), Cores: cfg.Cores}
		tr, err := trace.NewJSONLTracer(f, meta, *traceEpoch)
		exitOn(err)
		full.SetTracer(tr)
		defer func() { exitOn(tr.Close()) }()
	}
	_, err = full.Run(0)
	exitOn(err)
	total := full.Cycle()
	crashAt := uint64(float64(total) * *at)
	if *atCycle >= 0 {
		crashAt = uint64(*atCycle)
	}

	fault := *faultName
	if fault == "" {
		if !*adr {
			fault = "adrloss"
		} else {
			fault = "clean"
		}
	}
	fseed := *faultSeed
	if fseed == 0 {
		fseed = uint64(*seed)*0x9E3779B9 + crashAt
	}
	mask, err := parseMask(*faultMask)
	exitOn(err)
	fmt.Printf("full run: %d cycles; cutting power at cycle %d (fault %s)\n", total, crashAt, fault)

	meta := crashcampaign.ArtifactMeta{
		Bench: kind.Abbrev(), Scheme: scheme.String(), Params: p,
		Fault: fault, FaultSeed: fseed, Cycle: crashAt, Mask: mask,
	}
	res, err := meta.Replay(ctx, config.Default())
	exitOn(err)
	fmt.Printf("at crash: committed transactions per thread: %v\n", res.Committed)
	os.Exit(recoverAndVerify(res))
}

// recoverAndVerify runs recovery and the oracle over a rebuilt crash
// state and reports the outcome; the return value is the process exit
// code.
func recoverAndVerify(res *crashcampaign.ReplayResult) int {
	rec, err := recovery.Recover(res.Image, res.Scheme, res.Threads)
	if err != nil {
		if recovery.IsDetectedCorruption(err) {
			fmt.Printf("DETECTED: recovery refused the image: %v\n", err)
			fmt.Println("(refusing a damaged log is the correct outcome; nothing was silently applied)")
			return 0
		}
		fmt.Fprintln(os.Stderr, "proteus-recover: recovery error:", err)
		return 1
	}
	for t, rb := range rec.RolledBack {
		if len(rb) > 0 {
			fmt.Printf("recovery: thread %d rolled back transaction(s) %v\n", t, rb)
		}
	}
	fmt.Printf("recovery applied %d undo entries\n", rec.EntriesApplied)

	statuses := res.Oracle.Report(res.Image, res.Committed, res.SW)
	bad := 0
	for _, st := range statuses {
		if !st.OK() {
			bad++
		}
	}
	if bad == 0 {
		matched := make([]int, len(statuses))
		for i, st := range statuses {
			matched[i] = st.Matched
		}
		fmt.Printf("VERIFIED: recovered state matches transaction prefixes %v — every transaction atomic, no committed transaction lost\n", matched)
		return 0
	}
	fmt.Printf("FAILED: %d of %d threads do not match any transaction prefix:\n", bad, len(statuses))
	for _, st := range statuses {
		if st.OK() {
			fmt.Printf("  thread %d: ok (matched prefix %d of %d committed)\n", st.Thread, st.Matched, st.Committed)
		} else {
			fmt.Printf("  thread %d: MISMATCH (committed %d): %s\n", st.Thread, st.Committed, st.Mismatch)
		}
	}
	return 1
}

func parseMask(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad fault-mask entry %q: %w", part, err)
		}
		out = append(out, n)
	}
	return out, nil
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "proteus-recover:", err)
		os.Exit(1)
	}
}
