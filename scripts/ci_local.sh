#!/usr/bin/env bash
# The CI pipeline, run locally — mirrors .github/workflows/ci.yml stage
# for stage, so a green run here is the dry-run equivalent of the
# hosted workflow (no act required).  The docs stage is skipped with a
# notice when odoc is absent, exactly the dependency the workflow
# installs via opam.
set -euo pipefail
cd "$(dirname "$0")/.."

stage() {
  echo
  echo "=== $1 ==="
}

stage "build (dune build @all)"
dune build @all

stage "docs (make doc)"
if command -v odoc >/dev/null 2>&1; then
  make doc
else
  echo "skip: odoc not installed here; CI installs it (opam install odoc)"
fi

stage "tests (dune runtest)"
dune runtest

stage "speed tables (ENGINES and EXPERIMENTS match BENCH_perf.jsonl)"
scripts/speed_tables.sh --check

stage "native fallback (engine disabled, then no ocamlfind on PATH)"
OCAPI_NATIVE_DISABLE=1 dune runtest --force
# Every PATH directory holding an ocamlfind goes, not the workflow's
# PATH=/usr/bin:/bin: a local ocamlfind may live in /usr/bin.
nofind_path=$PATH
while found=$(PATH=$nofind_path; command -v ocamlfind); do
  stripped=$(printf '%s' "$nofind_path" | tr ':' '\n' \
    | { grep -vxF "$(dirname "$found")" || true; } | paste -sd: -)
  if [ "$stripped" = "$nofind_path" ]; then
    echo "error: cannot take $found off PATH" >&2
    exit 1
  fi
  nofind_path=$stripped
done
# From the test directory, as `dune runtest` runs it: the runner tests
# find the CLI at ../bin/ocapi_cli.exe.
(cd _build/default/test && PATH="$nofind_path" ./main.exe --compact)

stage "examples (exit 1 on an engine or netlist mismatch)"
for exe in _build/default/examples/*.exe; do
  echo "== $exe"
  "$exe"
done

stage "temp-dir gate (tests remove their temp files)"
scripts/tmpdir_gate.sh

stage "exception gate (one exception in lib/, no file path crashes the CLI)"
scripts/exception_gate.sh

stage "determinism gate (serial vs --domains 2)"
scripts/determinism_gate.sh

stage "crash-recovery gate (seeded chaos + server restart)"
scripts/crash_recovery_gate.sh

stage "fuzz gate (self-test + corpus replay + fresh sweep, serial vs --domains 2)"
scripts/fuzz_gate.sh

stage "paper claims (exit 1 when a claim's own check fails)"
dune exec bench/main.exe -- t1 c3 c4 c5 c6 f5 figs

stage "perf gate self-test (ingest gives ten series, injected collapse caught)"
scripts/perf_gate.sh --self-test

stage "perf gate (a short bench/perf pass into the ledger, vs rolling baseline)"
scripts/perf_gate.sh

echo
echo "ci-local: all stages passed"
