#!/usr/bin/env bash
# CI fuzz smoke: the differential fuzzing harness as a PR gate.
#
#   1. Self-test: an injected engine bug (LSB flips from cycle 3) must
#      be caught and shrunk to a reproducer — proving the harness can
#      actually detect a broken engine before we trust its green runs.
#   2. Corpus replay + fresh sweep: every committed reproducer in
#      corpus/fuzz_corpus.jsonl replays clean (historical bugs stay
#      fixed) and ~25 freshly generated designs run every registered
#      engine to agreement.  The sweep runs the --deep checks too: each
#      design's checkpointed SEU campaigns must classify every run as
#      the same schedule replayed from reset does.
#   3. Determinism: the serial fuzz report and the --domains 2 report
#      must be byte-identical — the campaign is a function of its seed,
#      never of scheduling.
#
# Usage: scripts/fuzz_gate.sh   (after `dune build`)
# Env: FUZZ_SEED (default 1), FUZZ_COUNT (default 25).
set -euo pipefail
cd "$(dirname "$0")/.."

OCAPI=${OCAPI:-_build/default/bin/ocapi_cli.exe}
if [ ! -x "$OCAPI" ]; then
  echo "error: $OCAPI not built (run: dune build)" >&2
  exit 1
fi

SEED=${FUZZ_SEED:-1}
COUNT=${FUZZ_COUNT:-25}
CORPUS=corpus/fuzz_corpus.jsonl

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
fail=0

# 1. Harness self-test.
if "$OCAPI" fuzz --self-test --seed 7 --count 3 >"$work/selftest.out" 2>&1; then
  echo "ok   self-test (injected engine bug caught and shrunk)"
else
  echo "FAIL self-test: the harness did not catch the injected engine bug" >&2
  tail -5 "$work/selftest.out" >&2
  fail=1
fi

# 2 + 3. Corpus replay and fresh sweep, serial vs --domains 2.  Each run
# gets a private corpus copy: a divergence appends reproducers, which
# must not leak into the repo file or the second run's replay set.
cp "$CORPUS" "$work/corpus-1.jsonl"
cp "$CORPUS" "$work/corpus-2.jsonl"
if "$OCAPI" fuzz --seed "$SEED" --count "$COUNT" --deep \
  --corpus "$work/corpus-1.jsonl" --json >"$work/fuzz-1.json"; then
  replays=$(grep -cv '^\s*#\|^\s*$' "$CORPUS" || true)
  echo "ok   fuzz sweep (seed $SEED: $replays corpus replays + $COUNT fresh designs, deep, all engines agree)"
else
  echo "FAIL fuzz sweep: divergence or corpus replay failure" >&2
  "$OCAPI" fuzz --seed "$SEED" --count "$COUNT" --deep \
    --corpus "$work/corpus-2.jsonl" 2>&1 | tail -15 >&2 || true
  fail=1
fi

if [ "$fail" -eq 0 ]; then
  "$OCAPI" fuzz --seed "$SEED" --count "$COUNT" --deep --domains 2 \
    --corpus "$work/corpus-2.jsonl" --json >"$work/fuzz-2.json"
  if cmp -s "$work/fuzz-1.json" "$work/fuzz-2.json"; then
    echo "ok   fuzz report determinism (serial vs --domains 2)"
  else
    echo "FAIL fuzz report: serial and --domains 2 bytes differ" >&2
    fail=1
  fi
fi

if [ "$fail" -eq 0 ]; then
  echo "fuzz gate: PASS"
else
  echo "fuzz gate: FAIL" >&2
fi
exit "$fail"
