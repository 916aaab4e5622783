#!/usr/bin/env bash
# Tests clean up after themselves: the test binary, run directly with a
# fresh TMPDIR, may leave behind only the native engine's artifact
# cache (ocapi-native-cache, kept across runs on purpose).  `dune
# runtest` cannot catch a leak, because it gives each action its own
# temp directory.
#
# Usage: scripts/tmpdir_gate.sh   (after `dune build`)
set -euo pipefail
cd "$(dirname "$0")/.."

TESTS=_build/default/test/main.exe
if [ ! -x "$TESTS" ]; then
  echo "error: $TESTS not built (run: dune build)" >&2
  exit 1
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# From the test directory, as `dune runtest` runs it: the runner tests
# find the CLI at ../bin/ocapi_cli.exe.
(cd "$(dirname "$TESTS")" && TMPDIR="$tmp" ./main.exe --compact)

left=$(ls -A "$tmp" | grep -vx 'ocapi-native-cache' || true)
if [ -z "$left" ]; then
  echo "tmpdir gate: PASS (the tests left only ocapi-native-cache in TMPDIR)"
else
  echo "tmpdir gate: FAIL — the tests left these in TMPDIR:" >&2
  printf '%s\n' "$left" >&2
  exit 1
fi
