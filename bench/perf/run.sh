#!/usr/bin/env bash
# Builds the benchmark from source, then runs it with the given
# arguments, from the root of the checkout:
#
#   bash bench/perf/run.sh --workload table1 --seed 1 --seconds 30 --trace 0
#
# Build output goes to stderr; stdout carries only the benchmark's report.
set -eu
cd "$(dirname "$0")/../.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo '{"error": {"code": "missing_sources", "message": "run.sh needs the ocapi sources (dune-project, lib/) at the checkout root"}}' >&2
  exit 2
fi
# Keep the build inside the checkout: no shared dune cache.
export DUNE_CACHE=disabled
dune build --display=quiet bench/perf/ocapi_bench.exe 1>&2
exec _build/default/bench/perf/ocapi_bench.exe "$@"
