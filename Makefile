GO ?= go

# Packages exercised under the race detector: the concurrency-heavy
# runtime, scheduler, profiler, and cluster-hierarchy layers, plus the
# lock-free metrics registry.
RACE_PKGS = ./internal/rts ./internal/sched ./internal/profiler ./internal/hierarchy ./internal/metrics ./internal/supervise ./internal/checkpoint ./internal/fleet ./internal/query ./internal/query/loadgen

# Packages with fault-injection (chaos) suites, run under -race: the
# deterministic fault scenarios exercise the retry/quarantine/ladder
# paths that clean tests never reach.
CHAOS_PKGS = ./internal/rts ./internal/sched ./internal/power ./internal/fault ./internal/fleet

.PHONY: all build vet lint test test-race test-chaos test-crash test-fleet test-query bench-selftest metrics-check fmt-check bench repro csv fuzz fuzz-smoke clean

all: build vet fmt-check lint test test-race test-chaos test-crash test-fleet test-query bench-selftest metrics-check

build:
	$(GO) build ./...

# perfbench/ is its own module, so the root ./... does not reach it.
vet:
	$(GO) vet ./...
	cd perfbench && GOPROXY=off $(GO) vet .

# Domain-specific static analysis (internal/lint). Unit analyzers:
# float equality in model code, unseeded math/rand, dropped errors
# (including defer Close on writable files), sleep-based test
# synchronization, metric-name contract violations,
# map-iteration-ordered output, goroutine leaks, and wall-clock values
# in artifacts (ROADMAP item 9 records the mutation audit that decided
# which analyzers stay). Module analyzers
# (whole-module call graph + per-function summaries): inconsistent lock
# order, mutex-guarded fields accessed bare, sync/atomic mixed with
# plain access, and //lint:deterministic roots reached by
# nondeterminism sources. Lock copies and lost context cancels are
# go vet's (copylocks, lostcancel; see vet). The one run also writes
# the SARIF 2.1.0 log lint.sarif that CI uploads. lint.budget is the
# findings ratchet: CI fails only when the count regresses above the
# recorded baseline (currently zero — keep it there).
lint:
	$(GO) run ./cmd/acsel-lint -budget lint.budget -sarif lint.sarif ./...

test:
	$(GO) test ./...

# Race-detector pass over the packages that spawn goroutines, plus the
# parallel-fold determinism regression (workers=1 vs GOMAXPROCS must
# yield a deeply equal Evaluation) and the parallel matrix equivalence.
test-race:
	$(GO) test -race $(RACE_PKGS)
	$(GO) test -race -run 'TestRunDeterministicAcrossWorkerCounts' ./internal/eval
	$(GO) test -race -run 'TestDissimilarityWorkersEquivalent' ./internal/core

# Fault-injection suites under the race detector: every built-in chaos
# scenario replayed through the runtime, scheduler, and sensor layers.
test-chaos:
	$(GO) test -race $(CHAOS_PKGS)

# Crash-recovery suite: the acsel-serve daemon is SIGKILLed mid-epoch
# in a child process and restarted; the resumed run's summary must be
# identical to an uninterrupted run on the same fault plan. Set
# ACSEL_CRASH_ARTIFACT_DIR to keep the journals of a failing run.
test-crash:
	$(GO) test -count=1 -v -run 'TestCrash|TestServe' ./cmd/acsel-serve

# Fleet integration suite: a child acsel-fleet coordinator rebalances
# three live loopback agents; one agent is killed mid-run (lease
# eviction + watt redistribution) and the coordinator itself is
# SIGKILLed and restarted (checkpoint resume). The in-process loopback
# suite in internal/fleet runs alongside it.
test-fleet:
	$(GO) test -count=1 -v -run 'TestFleet' ./cmd/acsel-fleet
	$(GO) test -count=1 ./internal/fleet

# Selection-service soak under the race detector: a seeded closed-loop
# load generator (8 clients, 30k queries; 10k with QUERY_SHORT=1, which
# CI sets) drives a service admitting only 6 selections in flight
# through two hot reloads and an injected slow-shard fault; every
# response is checked bitwise against a single-threaded oracle, and
# in-flight admission must shed without any request outliving its
# deadline. Two tests run beside it: one checks the counts every
# request outcome moves, one the in-flight bound. The run's latency/shed summary is written to
# $(QUERY_SUMMARY) (CI uploads it as a build artifact).
QUERY_SUMMARY ?= query-summary.json
test-query:
	ACSEL_QUERY_SUMMARY=$(abspath $(QUERY_SUMMARY)) $(GO) test -race -count=1 -v \
		$(if $(QUERY_SHORT),-short,) \
		-run 'TestSoakSelectionService|TestStressHotReloadRace|TestOutcomeCountsConsistent|TestAdmissionNeverExceedsMaxInFlight' ./internal/query

# Self-tests of the repository benchmark (perfbench/, its own module):
# same seed, same inputs and counts; a second seed passes every gate;
# every reported metric is measured. It compiles against the query,
# core and fleet APIs and reads their metric families, so it catches a
# renamed API or a dropped family. About 40 s.
bench-selftest:
	cd perfbench && GOPROXY=off $(GO) test .

# End-to-end observability smoke test: a one-iteration bench run must
# produce a JSON snapshot carrying every instrumented subsystem's
# families (rts registers via acsel-bench's blank import, at zero).
metrics-check:
	@tmp=$$(mktemp -d); \
	$(GO) run ./cmd/acsel-bench -exp table3 -iterations 1 -metrics-dump $$tmp/metrics.json > /dev/null; \
	for fam in acsel_rts_ladder_transitions_total acsel_profiler_runs_total acsel_sched_decisions_total acsel_eval_fold_seconds acsel_core_phase_seconds acsel_fault_injected_total; do \
		grep -q "\"$$fam\"" $$tmp/metrics.json || { echo "metrics-check: family $$fam missing from snapshot"; rm -rf $$tmp; exit 1; }; \
	done; \
	rm -rf $$tmp; echo "metrics-check: snapshot inventory complete"

# Fail if any file is not gofmt-clean (prints the offenders).
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Full microbenchmark + paper-bench sweep (quality metrics attached).
bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every table and figure of the paper as text.
repro:
	$(GO) run ./cmd/acsel-bench

# Export the characterization and evaluation data for external analysis.
csv:
	$(GO) run ./cmd/acsel-bench -exp accuracy -csv-dir out/

# Short fuzz pass over the pragma preprocessor.
fuzz:
	$(GO) test -fuzz FuzzPreprocess -fuzztime 30s ./internal/pragma

# CI-sized fuzz pass: 10 seconds per target across every fuzzed package
# (rank correlation, regression fitting, frontier shared order, the
# compiled selector against SelectAmong and its predicted frontier
# against its own selections, pragma preprocessing, checkpoint
# decoding, the shared strict wire decoder, select-request wire
# decoding).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzKendallTauRanks -fuzztime 10s ./internal/stats
	$(GO) test -run '^$$' -fuzz FuzzFitRegression -fuzztime 10s ./internal/stats
	$(GO) test -run '^$$' -fuzz FuzzSharedOrder -fuzztime 10s ./internal/pareto
	$(GO) test -run '^$$' -fuzz FuzzSelectorMatchesSelectAmong -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzPreprocess -fuzztime 10s ./internal/pragma
	$(GO) test -run '^$$' -fuzz FuzzCheckpointDecode -fuzztime 10s ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzSelectRequestDecode -fuzztime 10s ./internal/query

clean:
	rm -rf out/ model.json profiles.json lint.sarif query-summary.json
