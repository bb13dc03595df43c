# Convenience targets; everything below is plain go-tool invocations.

GO       ?= go
SCALE    ?= 64
BENCHOUT ?= BENCH_pr1.json
# Baseline convention: committed baselines are numbered BENCH_<N>.json
# and append-only — a PR that shifts performance on purpose commits a
# new BENCH_<N+1>.json rather than rewriting an old one. bench-compare
# gates against the newest committed baseline by default; override
# with BASELINE=BENCH_4.json to compare against history.
BASELINE ?= $(shell git ls-files 'BENCH_*.json' | sort -V | tail -1)
# Fractional slowdown tolerated by bench-compare before it fails.
BENCHTOL ?= 0.40
# Extra benchgate flags for bench-compare. Baselines are stamped with
# the machine they were recorded on and comparisons fail loudly on a
# mismatch; a CI runner that differs from the recording machine passes
# BENCHFLAGS=-allow-env-mismatch to downgrade that to a warning.
BENCHFLAGS ?=
# Optional prior `go test -bench` text output to embed in the baseline
# (records the speedup the current tree delivers over it).
PREV     ?=
# bench-baseline's output file: the next free number after the newest
# committed BENCH_<N>.json, so recording never overwrites history.
OUT      ?= BENCH_$(shell n=$$(git ls-files 'BENCH_*.json' | sed -nE 's/^BENCH_([0-9]+)\.json$$/\1/p' | sort -n | tail -1); echo $$(($${n:-0} + 1))).json

# perf-pairs settings: the parent revision to compare against (required),
# the number of alternating parent/change pairs, the perfbench workload
# and each run's timed seconds.
PARENT   ?=
PAIRS    ?= 8
WORKLOAD ?= sweep-heavy
SECONDS  ?= 20

.PHONY: all build test check reach soak bench bench-smoke bench-baseline bench-compare bench-json perf-pairs figures profile clean

all: build test

build:
	$(GO) build ./...

# Tier-1: the bar every PR must clear. It includes the docs-catalog
# tests (docs_test.go) keeping docs/TRACKERS.md and docs/METRICS.md in
# sync with the code.
test:
	$(GO) build ./... && $(GO) test ./...

# Stricter pre-merge gate: static analysis plus the full test suite
# under the race detector (the campaign harness is concurrent), plus a
# single-iteration pass over every benchmark so a broken benchmark
# cannot sit undetected until someone runs the perf gate, and the
# reachability check (reach, below).
# The suite includes the quick tier of every property-test machine
# (internal/proptest; catalog in docs/TESTING.md) — set TEST_INTENSITY
# or use `make soak` for the thorough tier. The explicit -timeout
# raises go test's 10 m per-package default: internal/exp's campaign
# tests already run minutes natively and the race detector multiplies
# that several-fold. The gofmt step fails on any file gofmt would
# rewrite, listing it. The campaign benchmark (perfbench/) is its own
# module, so ./... never builds it; its smoke test runs separately.
check: bench-smoke reach
	@test -z "$$(gofmt -l .)" || { gofmt -l .; echo "gofmt: the files above need formatting"; exit 1; }
	$(GO) vet ./...
	$(GO) test -race -timeout 30m ./...
	cd perfbench && $(GO) test ./...

# reach fails on any non-test function that no cmd/*, examples/* or
# perfbench binary links and that scripts/reach.allow does not list:
# these packages are internal, so such a function serves only tests.
reach:
	bash scripts/reach.sh

# soak runs the whole suite at the thorough test tier under the race
# detector: full crash-point coverage across all four workloads, long
# property-test loops (see internal/testutil), and 20x the generated
# cases in every proptest machine (tracker/scheduler/cache — see
# docs/TESTING.md). Slow by design; run it before merging
# storage-plane, tracker or harness changes.
soak:
	TEST_INTENSITY=thorough $(GO) test -race -timeout 30m ./...

bench:
	$(GO) test -bench . -benchtime 1x -benchmem ./...

# bench-smoke compiles and runs every benchmark exactly once, without
# the unit tests (-run ^$$), as a fast structural check.
bench-smoke:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./... > /dev/null

# bench-baseline snapshots current benchmark results into a new
# baseline, $(OUT) (BENCH_<N+1>.json unless OUT= is given). Pass
# PREV=<old bench text output> to record the prior numbers and
# per-benchmark speedups in the artifact. -p 1 runs the per-package
# test binaries serially: benchmarks must not time themselves while
# another package's benchmarks compete for the CPU.
bench-baseline:
	$(GO) test -p 1 -bench . -benchmem -run '^$$' ./... \
		| $(GO) run ./cmd/benchgate -write -out $(OUT) $(if $(PREV),-prev $(PREV))

# bench-compare re-runs the benchmarks (serially, like the baseline)
# and fails if any regresses beyond BENCHTOL against the committed
# baseline.
bench-compare:
	$(GO) test -p 1 -bench . -benchmem -run '^$$' ./... \
		| $(GO) run ./cmd/benchgate -compare $(BASELINE) -tolerance $(BENCHTOL) $(BENCHFLAGS)

# perf-pairs measures the working tree against PARENT on the campaign
# benchmark: alternating perfbench runs, one pair per seed, then the
# median, quartiles and change/parent ratio of every end-to-end metric
# and both sides' digests (scripts/perf_pairs.sh). The parent checkout
# is a temporary git worktree under .bench_build/.
perf-pairs:
	@test -n "$(PARENT)" || { echo "perf-pairs: set PARENT=<rev>"; exit 2; }
	bash scripts/perf_pairs.sh $(PARENT) $(PAIRS) $(WORKLOAD) $(SECONDS)

# bench-json writes the machine-readable perf trajectory artifact: a
# fast, fixed sweep (fig5 on a representative workload subset) whose
# hydra-report-file/v1 output is comparable across PRs. CI-friendly:
# exits non-zero on any failure, no interactive output needed.
# Override SCALE/BENCHOUT: `make bench-json SCALE=16 BENCHOUT=out.json`
bench-json:
	$(GO) run ./cmd/experiments -scale $(SCALE) \
		-workloads parest,bwaves,GUPS,leela -json $(BENCHOUT) fig5
	@echo "wrote $(BENCHOUT)"

# Regenerate every figure and table at the default scale.
figures:
	$(GO) run ./cmd/experiments all

# profile captures CPU and heap profiles of the Figure 5 sweep (the
# representative hot path: four workloads x four trackers) and prints
# the top entries of each. Artifacts land in ./profiles for deeper
# `go tool pprof` sessions.
profile:
	mkdir -p profiles
	$(GO) test -run '^$$' -bench 'BenchmarkFigure5$$' -benchtime 3x \
		-cpuprofile profiles/fig5.cpu.pprof -memprofile profiles/fig5.mem.pprof \
		-o profiles/fig5.test .
	$(GO) tool pprof -top -nodecount 15 profiles/fig5.test profiles/fig5.cpu.pprof
	$(GO) tool pprof -top -nodecount 15 -sample_index=alloc_space profiles/fig5.test profiles/fig5.mem.pprof

# clean removes generated run artifacts but keeps the benchmark
# baselines the perf gate compares against (current and committed
# historical ones) and a new $(OUT) that bench-baseline wrote but that
# is not committed yet.
clean:
	rm -f $(filter-out $(shell git ls-files 'BENCH_*.json') $(BASELINE) $(OUT),$(wildcard BENCH_*.json))
	rm -rf profiles
