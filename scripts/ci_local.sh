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

stage "bench smoke (BENCH_*.json + perf ledger)"
dune exec bench/main.exe -- smoke
ls -l BENCH_*.json

stage "perf gate self-test (injected collapse must be caught)"
scripts/perf_gate.sh --self-test

stage "perf gate (ledger vs rolling baseline)"
scripts/perf_gate.sh

echo
echo "ci-local: all stages passed"
