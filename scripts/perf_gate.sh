#!/usr/bin/env bash
# CI perf gate: a short bench/perf pass appends its cycle rates to the
# perf ledger, then the newest entry of every series is judged against
# its rolling baseline (the median of the previous WINDOW entries with
# the same bench/engine/digest key), via `ocapi report --gate`.
#
# The pass runs each bench/perf workload (table1, campaign) once, seed 1,
# for 5 seconds, into _generated/bench/perf-gate.jsonl.  Each untraced
# record gives one ledger line per <engine>_cycles_per_s: bench
# perf:<workload>, engine <engine>, unit cycles/s, stamped with the
# commit ($OCAPI_COMMIT, else `git rev-parse --short=12 HEAD`), the host
# and the time.  setup_s stays out: ledger values are rates, bigger is
# better.  A failed bench/perf run (a correctness check included) fails
# the gate; a first run on an empty ledger writes fresh series and
# passes.  Needs jq.
#
# Knobs (env):
#   OCAPI           built CLI        (default _build/default/bin/ocapi_cli.exe)
#   LEDGER          ledger file      (default PERF_LEDGER.jsonl / $OCAPI_LEDGER)
#   WINDOW          baseline window  (default 5)
#   TOLERANCE       fraction below baseline that counts as a regression
#                   (default 0.2)
#   HARD_TOLERANCE  fraction below baseline that counts as a collapse
#                   (default 0.5)
#   FAIL_ON         collapsed | regressed  (default collapsed: ordinary
#                   regressions only warn — shared CI runners are noisy —
#                   while a >50% collapse fails the job)
#
# Usage:
#   scripts/perf_gate.sh              (after `dune build`)
#   scripts/perf_gate.sh --self-test  ingest two canned bench/perf records
#                                     (ten series), then synthesize a
#                                     healthy history plus an injected
#                                     collapse and assert the gate
#                                     rejects it
set -euo pipefail
cd "$(dirname "$0")/.."

OCAPI=${OCAPI:-_build/default/bin/ocapi_cli.exe}
LEDGER=${LEDGER:-${OCAPI_LEDGER:-PERF_LEDGER.jsonl}}
WINDOW=${WINDOW:-5}
TOLERANCE=${TOLERANCE:-0.2}
HARD_TOLERANCE=${HARD_TOLERANCE:-0.5}
FAIL_ON=${FAIL_ON:-collapsed}
RECORDS=_generated/bench/perf-gate.jsonl

if [ ! -x "$OCAPI" ]; then
  echo "error: $OCAPI not built (run: dune build)" >&2
  exit 2
fi
if ! command -v jq >/dev/null 2>&1; then
  echo "error: the perf gate needs jq to read bench/perf records" >&2
  exit 2
fi

run_gate() { # ledger fail_on
  "$OCAPI" report --ledger "$1" --gate --fail-on "$2" \
    --window "$WINDOW" --tolerance "$TOLERANCE" \
    --hard-tolerance "$HARD_TOLERANCE"
}

# Appends one ledger line per cycle rate of each untraced record in
# $1 to the ledger $2, in one write; prints how many.
ingest() { # records ledger commit
  local lines
  lines=$(jq -c --arg commit "$3" --arg host "$(uname -n)" \
    --argjson ts "$(date +%s)" '
    select(.trace == 0) | .workload as $w | .result.metrics | to_entries[]
    | select(.key | endswith("_cycles_per_s"))
    | {bench: ("perf:" + $w), engine: (.key | rtrimstr("_cycles_per_s")),
       digest: "", value: .value.value, unit: "cycles/s", commit: $commit,
       host: $host, domains: 1, ts: $ts}' "$1")
  [ -z "$lines" ] || printf '%s\n' "$lines" >>"$2"
  grep -c . <<<"$lines" || true
}

if [ "${1:-}" = "--self-test" ]; then
  work=$(mktemp -d)
  trap 'rm -rf "$work"' EXIT
  # A canned untraced bench/perf record: set-up time and five rates.
  canned() { # workload
    printf '{"workload":"%s","seed":1,"seconds":5.0,"trace":0,"result":{"correct":true,"attempted":1,"failed":0,"metrics":{"setup_s":{"value":0.01,"unit":"s"}' "$1"
    for e in interp compiled native rtl gate; do
      printf ',"%s_cycles_per_s":{"value":1.0e5,"unit":"1/s"}' "$e"
    done
    printf '}}}\n'
  }
  { canned table1; canned campaign; } >"$work/records.jsonl"
  ingest "$work/records.jsonl" "$work/ingested.jsonl" selftest >/dev/null
  verdicts=$("$OCAPI" report --ledger "$work/ingested.jsonl" --json \
    | jq '.verdicts | length')
  if [ "$verdicts" != 10 ]; then
    echo "perf gate self-test: FAIL (ingest gave $verdicts series, not 10)" >&2
    exit 1
  fi
  synth="$work/ledger.jsonl"
  # A steady ~100 cycles/s history, then an injected 10x collapse.
  for v in 100.0 101.0 99.0 100.5 10.0; do
    printf '{"bench":"selftest:t1","engine":"compiled","digest":"d0","value":%s,"unit":"cycles/s","commit":"synthetic","host":"selftest","domains":1,"ts":0.0}\n' \
      "$v"
  done >"$synth"
  if run_gate "$synth" collapsed; then
    echo "perf gate self-test: FAIL (injected collapse not detected)" >&2
    exit 1
  fi
  echo "perf gate self-test: PASS (ingest gave 10 series; injected collapse detected)"
  exit 0
fi

mkdir -p "$(dirname "$RECORDS")"
rm -f "$RECORDS"
for w in table1 campaign; do
  if ! bash bench/perf/run.sh --workload "$w" --seed 1 --seconds 5 \
    --out "$RECORDS"; then
    echo "perf gate: FAIL (bench/perf --workload $w failed)" >&2
    exit 1
  fi
done
commit=${OCAPI_COMMIT:-$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)}
n=$(ingest "$RECORDS" "$LEDGER" "$commit")
echo "perf gate: appended $n entries to $LEDGER"
run_gate "$LEDGER" "$FAIL_ON"
