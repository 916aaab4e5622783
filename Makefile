.PHONY: all build doc test bench bench-json bench-native bench-par \
	bench-batch bench-service bench-smoke cache-stats fault fuzz batch serve \
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

# The full evaluation harness (every table and claim).
bench: build
	dune exec bench/main.exe

# Machine-readable Table 1 plus the result-cache cold/warm comparison:
# writes ./BENCH_table1.json (engine -> cycles/sec, process bytes,
# source lines) and ./BENCH_cache.json (hit/miss counters, per-engine
# cold vs warm seconds with a bit-identity check).
bench-json: build
	dune exec bench/main.exe -- t1-json cache

# Print the Flow.Cache hit/miss counters recorded in ./BENCH_cache.json
# by the last `make bench-json` (or `bench/main.exe -- cache`) run.
cache-stats:
	dune exec bench/main.exe -- cache-stats

# Native-engine benchmark: cold emit+compile+dynlink vs warm cache-hit
# session build (the warm run must invoke zero compilers), then a timed
# DECT run; appends the native:compile and native:run series to the
# perf ledger.  Skips (successfully) on toolchain-less hosts.
bench-native: build
	dune exec bench/main.exe -- native

# Parallel campaign scaling: the DECT SEU campaign at 1, 2 and 4 worker
# domains, with a bit-identity check of every parallel report against
# the serial one; writes ./BENCH_parallel.json (runs/sec + speedups).
bench-par: build
	dune exec bench/main.exe -- par

# Batch service throughput: a mixed duplicated manifest through the job
# queue on 2 worker domains; writes ./BENCH_batch.json (jobs/sec, queue
# wait p50/p95, dedup hit rate).
bench-batch: build
	dune exec bench/main.exe -- batch

# Resilient service benchmark: a clean campaign vs the same campaign
# under seeded chaos (worker kills) plus a pure journal-replay restart;
# writes ./BENCH_service.json (throughputs, retry counts, a
# byte-identity convergence check).
bench-service: build
	dune exec bench/main.exe -- service

# The CI smoke stage: every BENCH_*.json writer at a size that finishes
# in seconds (BENCH_table1 / fault / batch / cache / service).
bench-smoke: build
	dune exec bench/main.exe -- smoke

# Fault campaigns: a small deterministic DECT SEU campaign (seeded, so
# repeated runs print the same classification table) plus the bench
# target that writes ./BENCH_fault.json (coverage %, runs/sec).
# Add --domains N to the CLI line to run the campaign on N domains.
fault: build
	dune exec bin/ocapi_cli.exe -- fault --design dect --campaign seu --runs 200 --seed 1
	dune exec bench/main.exe -- fault

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
# (PERF_LEDGER.jsonl, appended to by each bench/smoke run) plus a
# self-contained HTML page with sparkline history per series.
report: build
	dune exec bin/ocapi_cli.exe -- report --html PERF_REPORT.html

# The CI perf gate: newest ledger entry per series vs its rolling
# baseline; ordinary regressions warn, a >50% collapse fails.
# scripts/perf_gate.sh --self-test checks the gate catches an injected
# collapse.
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
# tests, determinism gate, bench smoke) — an `act`-equivalent dry run.
ci-local:
	scripts/ci_local.sh

clean:
	dune clean
