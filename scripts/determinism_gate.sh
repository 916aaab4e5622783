#!/usr/bin/env bash
# CI determinism gate: campaign reports and batch artifact trees must
# be bit-identical between a serial run and a --domains 2 run, and the
# job runner must write the same tree on process workers (`ocapi serve`)
# as on domain workers (`ocapi batch`).  This guards the core claim of
# the parallel runner and the job runner — extra workers, or another
# kind of worker, change wall time, never results.  Section 4 holds
# the engines to the same standard: a seeded SEU campaign classifies
# every run identically on each of them.  Section 5 holds the result
# cache to it: a run served from the disk by another process prints
# the uncached run's bytes.
#
# Usage: scripts/determinism_gate.sh   (after `dune build`)
set -euo pipefail
cd "$(dirname "$0")/.."

OCAPI=${OCAPI:-_build/default/bin/ocapi_cli.exe}
if [ ! -x "$OCAPI" ]; then
  echo "error: $OCAPI not built (run: dune build)" >&2
  exit 1
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
fail=0

check_cmp() { # label serial_file parallel_file
  if cmp -s "$2" "$3"; then
    echo "ok   $1"
  else
    echo "FAIL $1: serial and --domains 2 outputs differ" >&2
    fail=1
  fi
}

# 1. SEU campaign report: 300 seeded register bit-flip runs on the DECT
#    transceiver, classified masked / SDC / detected.
"$OCAPI" fault --design dect --campaign seu --runs 300 --seed 1 \
  --json >"$work/seu-1.json"
"$OCAPI" fault --design dect --campaign seu --runs 300 --seed 1 \
  --domains 2 --json >"$work/seu-2.json"
check_cmp "seu report (dect, 300 runs)" "$work/seu-1.json" "$work/seu-2.json"

# 1b. The same SEU campaign on the native (dynlinked) engine: the
#     regenerated simulator must classify every run identically whether
#     sessions are built serially or from two worker domains at once
#     (the process loads the plugin once, and each session instantiates
#     it: a private value store, FSM states and RAM images — this guards
#     that isolation).
"$OCAPI" fault --design dect --campaign seu --runs 300 --seed 1 \
  --engine native --json >"$work/seu-native-1.json"
"$OCAPI" fault --design dect --campaign seu --runs 300 --seed 1 \
  --engine native --domains 2 --json >"$work/seu-native-2.json"
check_cmp "seu report (dect, native engine, 300 runs)" \
  "$work/seu-native-1.json" "$work/seu-native-2.json"

# 1c. The same SEU campaign on the gate (synthesized netlist) engine:
#     flips land on physical flip-flop q-nets.  The worker domains'
#     sessions share one synthesized, levelized topology and each owns
#     its lane state (net words, RAM contents, the dirty set) — this
#     guards that split.  Fewer runs — gate simulation is the slowest
#     engine.  The accumulator CPU adds a RAM, whose contents are lane
#     state too.
"$OCAPI" fault --design hcor --campaign seu --runs 60 --cycles 24 --seed 1 \
  --engine gate --json >"$work/seu-gate-1.json"
"$OCAPI" fault --design hcor --campaign seu --runs 60 --cycles 24 --seed 1 \
  --engine gate --domains 2 --json >"$work/seu-gate-2.json"
check_cmp "seu report (hcor, gate engine, 60 runs)" \
  "$work/seu-gate-1.json" "$work/seu-gate-2.json"

"$OCAPI" fault --design cpu --campaign seu --runs 200 --seed 1 \
  --engine gate --json >"$work/seu-gate-cpu-1.json"
"$OCAPI" fault --design cpu --campaign seu --runs 200 --seed 1 \
  --engine gate --domains 2 --json >"$work/seu-gate-cpu-2.json"
check_cmp "seu report (cpu, gate engine, 200 runs)" \
  "$work/seu-gate-cpu-1.json" "$work/seu-gate-cpu-2.json"

# 1d. The gallery designs ride the same check: the RS codec's SEU
#     classification and the accumulator CPU's (whose RAM cell crosses
#     the timed/untimed loop) must be domain-count-invariant too.
"$OCAPI" fault --design rs --campaign seu --runs 300 --cycles 45 --seed 1 \
  --json >"$work/seu-rs-1.json"
"$OCAPI" fault --design rs --campaign seu --runs 300 --cycles 45 --seed 1 \
  --domains 2 --json >"$work/seu-rs-2.json"
check_cmp "seu report (rs, 300 runs)" "$work/seu-rs-1.json" "$work/seu-rs-2.json"

"$OCAPI" fault --design cpu --campaign seu --runs 300 --seed 1 \
  --json >"$work/seu-cpu-1.json"
"$OCAPI" fault --design cpu --campaign seu --runs 300 --seed 1 \
  --domains 2 --json >"$work/seu-cpu-2.json"
check_cmp "seu report (cpu, 300 runs)" "$work/seu-cpu-1.json" "$work/seu-cpu-2.json"

# 1e. The interpreter and the RTL back end evaluate through plans that
#     each SFG and FSM builds on first use and keeps.  Every replica
#     domain builds its own design, so no plan may cross domains: their
#     reports must be domain-count-invariant as well.
for engine in interp rtl; do
  "$OCAPI" fault --design rs --campaign seu --runs 300 --cycles 45 --seed 1 \
    --engine "$engine" --json >"$work/seu-rs-$engine-1.json"
  "$OCAPI" fault --design rs --campaign seu --runs 300 --cycles 45 --seed 1 \
    --engine "$engine" --domains 2 --json >"$work/seu-rs-$engine-2.json"
  check_cmp "seu report (rs, $engine engine, 300 runs)" \
    "$work/seu-rs-$engine-1.json" "$work/seu-rs-$engine-2.json"
done

"$OCAPI" fault --design hcor --campaign seu --runs 300 --seed 1 \
  --engine interp --json >"$work/seu-hcor-interp-1.json"
"$OCAPI" fault --design hcor --campaign seu --runs 300 --seed 1 \
  --engine interp --domains 2 --json >"$work/seu-hcor-interp-2.json"
check_cmp "seu report (hcor, interp engine, 300 runs)" \
  "$work/seu-hcor-interp-1.json" "$work/seu-hcor-interp-2.json"

# 1f. A native SEU campaign on the accumulator CPU, whose RAM the plugin
#     inlines: the RAM image is instance state, so two worker domains'
#     instances of the one loaded plugin must not share it.
"$OCAPI" fault --design cpu --campaign seu --runs 300 --seed 1 \
  --engine native --json >"$work/seu-cpu-native-1.json"
"$OCAPI" fault --design cpu --campaign seu --runs 300 --seed 1 \
  --engine native --domains 2 --json >"$work/seu-cpu-native-2.json"
check_cmp "seu report (cpu, native engine, 300 runs)" \
  "$work/seu-cpu-native-1.json" "$work/seu-cpu-native-2.json"

# 2. Stuck-at campaign report: a seeded 80-fault sample of the DECT
#    gate-level netlist.
"$OCAPI" fault --design dect --campaign stuck-at --cycles 24 \
  --max-faults 80 --seed 1 --json >"$work/sa-1.json"
"$OCAPI" fault --design dect --campaign stuck-at --cycles 24 \
  --max-faults 80 --seed 1 --domains 2 --json >"$work/sa-2.json"
check_cmp "stuck-at report (dect, 80 faults)" "$work/sa-1.json" "$work/sa-2.json"

# 2b. Pre/post-optimization stuck-at compare: both campaigns and the
#     IR provenance chain must be bit-identical across domain counts.
"$OCAPI" fault --design hcor --campaign stuck-at --optimized --cycles 24 \
  --max-faults 60 --seed 1 --json >"$work/sa-opt-1.json"
"$OCAPI" fault --design hcor --campaign stuck-at --optimized --cycles 24 \
  --max-faults 60 --seed 1 --domains 2 --json >"$work/sa-opt-2.json"
check_cmp "stuck-at --optimized report (hcor, 60 faults)" \
  "$work/sa-opt-1.json" "$work/sa-opt-2.json"

# 2c. The accumulator CPU's full collapsed fault list: 2801 faults in
#     45 batches of up to 63 faults, one per lane, with per-lane RAM
#     contents.  Batches are the parallel tasks, so the split over
#     worker domains must not change a single per-fault outcome.
"$OCAPI" fault --design cpu --campaign stuck-at --cycles 64 --seed 1 \
  --json >"$work/sa-cpu-1.json"
"$OCAPI" fault --design cpu --campaign stuck-at --cycles 64 --seed 1 \
  --domains 2 --json >"$work/sa-cpu-2.json"
check_cmp "stuck-at report (cpu, all 2801 faults)" \
  "$work/sa-cpu-1.json" "$work/sa-cpu-2.json"

# 3. Batch artifact tree and canonical event log: the example manifest
#    (simulate + seu + stuck-at + engine-sweep, with a duplicate)
#    through the job queue.  Artifact bytes and filenames must match
#    file-for-file, and the --events-out lifecycle log — canonicalized
#    by correlation id, not arrival order — must be byte-identical.
"$OCAPI" batch --manifest examples/jobs.jsonl \
  --artifacts "$work/art-1" --events-out "$work/events-1.jsonl" \
  --quiet >/dev/null
"$OCAPI" batch --manifest examples/jobs.jsonl --domains 2 \
  --artifacts "$work/art-2" --events-out "$work/events-2.jsonl" \
  --quiet >/dev/null
check_cmp "batch event log ($(wc -l <"$work/events-1.jsonl") events)" \
  "$work/events-1.jsonl" "$work/events-2.jsonl"
if diff -r "$work/art-1" "$work/art-2" >/dev/null; then
  echo "ok   batch artifacts ($(ls "$work/art-1" | wc -l) files)"
else
  echo "FAIL batch artifacts: serial and --domains 2 trees differ" >&2
  diff -r "$work/art-1" "$work/art-2" | head -10 >&2 || true
  fail=1
fi
# 3b. One runner, one artifact tree: the same manifest on process
#     workers (`ocapi serve`, fresh state dir) must write the batch tree.
"$OCAPI" serve --manifest examples/jobs.jsonl --workers 2 \
  --state-dir "$work/serve-state" --artifacts "$work/art-serve" \
  --quiet >/dev/null
if diff -r "$work/art-1" "$work/art-serve" >/dev/null; then
  echo "ok   serve artifacts = batch artifacts ($(ls "$work/art-serve" | wc -l) files)"
else
  echo "FAIL serve artifacts: serve --workers 2 and batch trees differ" >&2
  diff -r "$work/art-1" "$work/art-serve" | head -10 >&2 || true
  fail=1
fi

# 4. Cross-engine SEU agreement: one seeded campaign must classify every
#    run identically on every engine — the same outcome, target, cycle,
#    error code and message per run.  This guards each engine's register
#    and state pokes and its reset between runs.  The engine names are
#    removed before the byte compare.
seu_across_engines() { # design
  local design=$1 ref=interp
  for engine in interp compiled native rtl gate; do
    "$OCAPI" fault --design "$design" --campaign seu --runs 200 --seed 2 \
      --engine "$engine" --json |
      sed -e 's/"engine":"[^"]*",\{0,1\}//g' >"$work/xseu-$design-$engine.json"
    if [ "$engine" != "$ref" ]; then
      if cmp -s "$work/xseu-$design-$ref.json" "$work/xseu-$design-$engine.json"; then
        echo "ok   seu report ($design, 200 runs): $engine = $ref"
      else
        echo "FAIL seu report ($design, 200 runs): $engine and $ref differ" >&2
        fail=1
      fi
    fi
  done
}
for design in rs cpu dect; do
  seu_across_engines "$design"
done

# 5. The result cache across processes: in a fresh working directory, a
#    cold `simulate --cache` fills _generated/cache/ and a second
#    process is served from that disk entry.  Both must print the bytes
#    of the uncached run, on every design and engine.
ocapi_abs=$(cd "$(dirname "$OCAPI")" && pwd)/$(basename "$OCAPI")
for design in hcor dect rs cpu; do
  for engine in interp compiled native rtl gate; do
    run="$work/cache-$design-$engine"
    mkdir -p "$run/wd"
    sim() { "$ocapi_abs" simulate "$design" --engine "$engine" --json --cycles 300 "$@"; }
    sim >"$run/plain.json"
    (cd "$run/wd" && sim --cache) >"$run/cold.json"
    (cd "$run/wd" && sim --cache) >"$run/warm.json"
    hit=$(cd "$run/wd" && "$ocapi_abs" simulate "$design" --engine "$engine" \
      --cycles 300 --cache | tail -n 1)
    if cmp -s "$run/plain.json" "$run/cold.json" &&
      cmp -s "$run/plain.json" "$run/warm.json" &&
      [ "$hit" = "cache: 1 hits (1 from disk), 0 misses, 1 entries" ]; then
      echo "ok   simulate --cache ($design, $engine): cold = warm from disk = uncached"
    else
      echo "FAIL simulate --cache ($design, $engine): cold, warm and uncached differ ($hit)" >&2
      fail=1
    fi
  done
done

if [ "$fail" -eq 0 ]; then
  echo "determinism gate: PASS"
else
  echo "determinism gate: FAIL" >&2
fi
exit "$fail"
