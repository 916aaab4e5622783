#!/usr/bin/env bash
# Prints the speed tables the docs take from the committed bench/perf
# records: ENGINES.md's "Relative speed" table and the speed column of
# EXPERIMENTS.md's T1 table.  Each rate is 10^9 / the median of
# `engine.step_ns.<engine>.<design>` over the traced `table1` records
# (`make bench-records` writes them), to three significant digits.
# With --check, prints the differences and exits 1 when either document differs
# from what it would print.  Needs jq.
#
# Usage: scripts/speed_tables.sh [--check]
set -euo pipefail
cd "$(dirname "$0")/.."

records=BENCH_perf.jsonl
check=0
case "${1:-}" in
  "") ;;
  --check) check=1 ;;
  *) echo "usage: scripts/speed_tables.sh [--check]" >&2; exit 2 ;;
esac
command -v jq >/dev/null 2>&1 || { echo "error: speed_tables.sh needs jq" >&2; exit 1; }
[ -r "$records" ] || { echo "error: $records: cannot read" >&2; exit 1; }

# $k is the thousands unit: "k" in ENGINES.md, "K" in EXPERIMENTS.md.
rates='
  [.[] | select(.workload == "table1" and .trace == 1) | .result.metrics] as $runs
  | def rate($e; $d):
      [$runs[] | .["engine.step_ns.\($e).\($d)"].value] | sort
      | 1e9 / .[length / 2 | floor];
    def sig3:
      (if . >= 999.5e3 then [. / 1e6, " M"] elif . >= 999.5 then [. / 1e3, " " + $k]
       else [., ""] end) as [$x, $u]
      | (if $x >= 99.95 then 0 elif $x >= 9.995 then 1 else 2 end) as $d
      | ($x * pow(10; $d) | round | tostring) as $s
      | (if $d == 0 then $s
         else $s[:($s | length) - $d] + "." + $s[($s | length) - $d:] end)
        + $u;'

engines_table() {
  jq -rs --arg k k "$rates"'
    "| Design | `gate` | `interp` | `rtl` | `compiled` | `native` |",
    "|---|---|---|---|---|---|",
    ( [["hcor", "HCOR (7.1 k gates)"], ["dect", "DECT (47 k gates)"],
       ["rs", "RS codec (1.2 k gates)"], ["cpu", "ACC CPU (1.2 k gates)"]][]
      as [$d, $name]
      | "| \($name) | \(rate("gate"; $d) | sig3) cycles/s | \(rate("interp"; $d) | sig3)"
        + " | \(rate("rtl"; $d) | sig3) | \(rate("compiled"; $d) | sig3)"
        + " | **\(rate("native"; $d) | sig3)** |" )' "$records"
}

t1_column() {
  jq -rs --arg k K "$rates"'
    (["HCOR", "hcor"], ["DECT", "dect"]) as [$name, $d]
    | [["interp", "OCaml (interpreted obj)"], ["compiled", "OCaml (compiled)"],
       ["native", "OCaml (native)"], ["rtl", "VHDL (RT)"],
       ["gate", "Verilog (netlist)"]][] as [$e, $row]
    | "\($name) | \($row) | \(rate($e; $d) | sig3)"' "$records"
}

if [ "$check" = 0 ]; then
  echo 'ENGINES.md, "Relative speed":'
  engines_table
  echo
  echo 'EXPERIMENTS.md, T1 speed column (design | engine | cycles/s):'
  t1_column
  exit 0
fi

# The documents' copies: ENGINES' table from its header row on; T1's
# design, engine and speed cells.
engines_doc() {
  awk '/^\| Design \| `gate`/ { on = 1 } on && !/^\|/ { exit } on' ENGINES.md
}
t1_doc() {
  awk '/^## T1 / { on = 1; next } on && /^## / { exit }
       on && /^\| (HCOR|DECT) / {
         split($0, f, "|")
         for (i = 2; i <= 6; i++) gsub(/^ +| +$/, "", f[i])
         print f[2] " | " f[4] " | " f[6]
       }' EXPERIMENTS.md
}

fail=0
if ! diff <(engines_table) <(engines_doc) >&2; then
  echo "FAIL ENGINES.md's speed table differs from $records (< records, > doc)" >&2
  fail=1
fi
if ! diff <(t1_column) <(t1_doc) >&2; then
  echo "FAIL EXPERIMENTS.md's T1 speed column differs from $records (< records, > doc)" >&2
  fail=1
fi
[ "$fail" = 0 ] && echo "ok   speed tables match $records"
exit "$fail"
