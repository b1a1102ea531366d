#!/usr/bin/env bash
# Fast litmus gate: sweep the curated program subset under every
# failure-safe scheme and every fault model, require zero divergences,
# and require the report bytes to be identical at a different worker
# count (the determinism contract). Any divergence exits nonzero and
# leaves its reproducer directories under $OUT_DIR/repro/ for upload.
# The fast stepper's agreement with the per-cycle reference stepper is
# checked by go test (internal/core TestFastForwardCrashPointEquivalence).
set -euo pipefail

OUT_DIR="${OUT_DIR:-litmus}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

say() { echo "litmus_smoke: $*" >&2; }

go build -o "$WORK/proteus-litmus" ./cmd/proteus-litmus
say "built proteus-litmus"

mkdir -p "$OUT_DIR"
"$WORK/proteus-litmus" -programs curated -faults all \
    -out "$OUT_DIR/report.json" -artifacts "$OUT_DIR/repro"
say "curated sweep clean (exit 0)"

grep -q '"divergences": 0' "$OUT_DIR/report.json" \
    || { say "report totals claim divergences"; exit 1; }

if [ -d "$OUT_DIR/repro" ] && [ -n "$(ls -A "$OUT_DIR/repro")" ]; then
    say "reproducer directory is not empty despite a clean sweep"
    exit 1
fi

# Determinism: single worker, same seed -> same bytes.
"$WORK/proteus-litmus" -programs curated -faults all -jobs 1 \
    -out "$WORK/report-jobs1.json" -q
cmp "$OUT_DIR/report.json" "$WORK/report-jobs1.json" \
    || { say "report bytes differ between worker counts"; exit 1; }
say "report byte-identical at -jobs 1"

# A named program parses and sweeps standalone.
"$WORK/proteus-litmus" -programs "Ps:xy;x|y" -scheme Proteus -faults torn \
    -out "$WORK/one.json" -q
say "single named program swept — PASS"
