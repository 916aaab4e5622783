#!/usr/bin/env bash
# One diagnostic path, in two passes.
#
# 1. Every library failure is an Ocapi_error.Error: fails when an
#    interface under lib/ declares any other exception.  The one
#    exemption is Ocapi_native_abi.Native_overflow: the generated native
#    plugin links only Ocapi_native_abi, so it cannot raise
#    Ocapi_error.Error.
# 2. No file path crashes the CLI: each command below is handed a path
#    it cannot use (a directory where a file belongs, a regular file
#    where a directory belongs) and must exit 1 with a message naming
#    that path, not 125 with an uncaught exception.  The unwritable HTML
#    path lies under a regular file, which no user, root included, can
#    turn into a directory.
#
# Usage: scripts/exception_gate.sh   (after `dune build`)
set -euo pipefail
cd "$(dirname "$0")/.."

OCAPI=${OCAPI:-_build/default/bin/ocapi_cli.exe}
fail=0

declared=$(find lib -name '*.mli' -print0 | sort -z |
  xargs -0 perl -0777 -ne \
    'print "$ARGV: exception $1\n" while /^[ \t]*exception\s+([A-Z]\w*)/mg')
others=$(printf '%s\n' "$declared" | grep -v \
  -e '^lib/error/ocapi_error\.mli: exception Error$' \
  -e '^lib/native_abi/ocapi_native_abi\.mli: exception Native_overflow$' \
  -e '^$' || true)

if [ -z "$others" ]; then
  echo "ok   lib/ declares only Ocapi_error.Error and Ocapi_native_abi.Native_overflow"
else
  echo "FAIL raise Ocapi_error.Error instead of declaring:" >&2
  printf '%s\n' "$others" >&2
  fail=1
fi

if [ ! -x "$OCAPI" ]; then
  echo "error: $OCAPI not built (run: dune build)" >&2
  exit 1
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/dir" "$work/state/journal.jsonl"
: >"$work/file"
echo '{"kind": "simulate", "design": "hcor"}' >"$work/jobs.jsonl"
echo '{"bench": "b", "engine": "e", "value": 1.0}' >"$work/ledger.jsonl"

cli_case() { # path-the-message-names args...
  local named=$1 rc
  shift
  set +e
  "$OCAPI" "$@" >/dev/null 2>"$work/stderr"
  rc=$?
  set -e
  if [ "$rc" -eq 1 ] && grep -qF -- "$named" "$work/stderr"; then
    echo "ok   ocapi $1: exit 1 naming $named"
  else
    echo "FAIL ocapi $*: exit $rc, expected exit 1 naming $named" >&2
    sed 's/^/     /' "$work/stderr" >&2
    fail=1
  fi
}

cli_case "$work/dir" batch --manifest "$work/dir" --artifacts "$work/art"
cli_case "$work/state/journal.jsonl" serve --manifest "$work/jobs.jsonl" \
  --state-dir "$work/state" --artifacts "$work/art"
cli_case "$work/dir" fuzz --corpus "$work/dir" --count 1
cli_case "$work/dir" report --ledger "$work/dir"
cli_case "$work/dir" report --ledger "$work/ledger.jsonl" --events "$work/dir"
cli_case "$work/file/x.html" report --ledger "$work/ledger.jsonl" \
  --html "$work/file/x.html"
cli_case "$work/file" emit hcor --dir "$work/file"

if [ "$fail" -eq 0 ]; then
  echo "exception gate: PASS"
else
  echo "exception gate: FAIL" >&2
fi
exit "$fail"
