.PHONY: all build doc test bench bench-records fault fuzz batch serve \
	profile report perf-gate ci-determinism ci-crash-recovery ci-fuzz \
	ci-local clean

all: build doc

build:
	dune build

# API documentation: odoc over every public .mli.  Without the odoc
# binary `dune build @doc` is an empty alias that succeeds silently —
# which would let CI report green docs it never built — so the target
# fails loudly when odoc is absent.
doc:
	@command -v odoc >/dev/null 2>&1 || { \
	  echo "error: odoc is not installed (opam install odoc);" \
	       "refusing to pretend the docs built" >&2; \
	  exit 1; }
	dune build @doc

test:
	dune runtest

# The paper-claim reproductions EXPERIMENTS.md cites: Table 1, C3-C6,
# F5, the figures and the Bechamel micro-benchmarks.  Exits 1 when a
# claim's own check fails.
bench: build
	dune exec bench/main.exe

# The committed speed records: seeds 1-5 of bench/perf's table1 and
# campaign, each untraced and traced, at the nominal 30 s, one JSON line
# each, stamped with commit, host and core count into ./BENCH_perf.jsonl.
# ENGINES.md's relative-speed table and EXPERIMENTS.md's T1 speed column
# are read from its traced records with the jq command printed next to
# each.  Takes a few minutes.
bench-records:
	@command -v jq >/dev/null 2>&1 || { echo "error: bench-records needs jq" >&2; exit 1; }
	mkdir -p _generated/bench
	rm -f _generated/bench/records.jsonl
	for seed in 1 2 3 4 5; do \
	  for run in "table1" "table1 --trace 1" "campaign" "campaign --trace 1"; do \
	    bash bench/perf/run.sh --workload $$run --seed $$seed \
	      --out _generated/bench/records.jsonl || exit 1; \
	  done; \
	done
	jq -c --arg commit "$$(git describe --always --dirty)" \
	  --arg host "$$(uname -n)" --argjson cores "$$(nproc)" \
	  '. + {commit: $$commit, host: $$host, cores: $$cores}' \
	  _generated/bench/records.jsonl >BENCH_perf.jsonl

# A small deterministic DECT SEU campaign: seeded, so repeated runs
# print the same classification table.  Add --domains N to run it on N
# domains.
fault: build
	dune exec bin/ocapi_cli.exe -- fault --design dect --campaign seu --runs 200 --seed 1

# Batch mode demo: the example manifest through the job queue on two
# domains, artifacts under _generated/batch/.
batch: build
	dune exec bin/ocapi_cli.exe -- batch --manifest examples/jobs.jsonl --domains 2

# Resilient service demo: the service manifest (including its poisoned
# "chaos": "crash" line) through supervised worker processes with a
# crash-recoverable journal under _generated/service/.  Rerunning after
# a Ctrl-C or a kill resumes from the journal.  Exits 1: the poisoned
# job ends as Failed/retries-exhausted by design.
serve: build
	dune exec bin/ocapi_cli.exe -- serve \
	  --manifest examples/service_jobs.jsonl --workers 2 --retries 2 \
	  --backoff-base 0.2 || true

# Telemetry demo: metrics report + Chrome trace for the DECT compiled
# simulator (open the .trace.json in https://ui.perfetto.dev).
profile: build
	dune exec bin/ocapi_cli.exe -- profile --design dect --engine compiled

# Performance report: trend table over every series in the perf ledger
# (PERF_LEDGER.jsonl, appended to by each `make perf-gate`) plus a
# self-contained HTML page with sparkline history per series.
report: build
	dune exec bin/ocapi_cli.exe -- report --html PERF_REPORT.html

# The CI perf gate: a 5-second bench/perf pass per workload appends its
# ten cycle rates to the ledger, then the newest entry per series is
# judged against its rolling baseline; ordinary regressions warn, a
# >50% collapse or a failed bench/perf check fails.  Needs jq.
# scripts/perf_gate.sh --self-test checks the ingest and that the gate
# catches an injected collapse.
perf-gate: build
	scripts/perf_gate.sh

# The CI determinism gate: serial vs --domains 2 campaign reports,
# batch artifact trees and canonical event logs must be bit-identical.
ci-determinism: build
	scripts/determinism_gate.sh

# The CI crash-recovery gate: a seeded chaos campaign (worker kills, a
# mid-campaign server SIGKILL, one poisoned job) must converge after
# restart to an artifact tree byte-identical to an undisturbed run.
ci-crash-recovery: build
	scripts/crash_recovery_gate.sh

# Differential fuzz demo: replay the committed reproducer corpus, then
# cross-check 50 generated designs on every engine, shrinking any
# divergence to a minimal reproducer.
fuzz: build
	dune exec bin/ocapi_cli.exe -- fuzz --seed 42 --count 50 \
	  --corpus corpus/fuzz_corpus.jsonl

# The CI fuzz smoke gate: harness self-test (an injected engine bug must
# be caught and shrunk), corpus replay + 25 fresh designs on every
# engine with the --deep checks, and a serial vs --domains 2
# byte-compare of the fuzz report.
ci-fuzz: build
	scripts/fuzz_gate.sh

# The whole CI pipeline, run locally (build, docs when odoc exists,
# tests, the gates, the paper claims, the perf gate) — an
# `act`-equivalent dry run.
ci-local:
	scripts/ci_local.sh

clean:
	dune clean
