#!/usr/bin/env bash
# One diagnostic path: every library failure is an Ocapi_error.Error.
# Fails when an interface under lib/ declares any other exception.  The
# one exemption is Ocapi_native_abi.Native_overflow: the generated
# native plugin links only Ocapi_native_abi, so it cannot raise
# Ocapi_error.Error.
#
# Usage: scripts/exception_gate.sh
set -euo pipefail
cd "$(dirname "$0")/.."

declared=$(find lib -name '*.mli' -print0 | sort -z |
  xargs -0 perl -0777 -ne \
    'print "$ARGV: exception $1\n" while /^[ \t]*exception\s+([A-Z]\w*)/mg')
others=$(printf '%s\n' "$declared" | grep -v \
  -e '^lib/error/ocapi_error\.mli: exception Error$' \
  -e '^lib/native_abi/ocapi_native_abi\.mli: exception Native_overflow$' \
  -e '^$' || true)

if [ -z "$others" ]; then
  echo "exception gate: PASS (lib/ declares only Ocapi_error.Error and Ocapi_native_abi.Native_overflow)"
else
  echo "exception gate: FAIL — raise Ocapi_error.Error instead of declaring:" >&2
  printf '%s\n' "$others" >&2
  exit 1
fi
