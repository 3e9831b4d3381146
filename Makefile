# The ring and tcplink code is concurrency-heavy: `make check` is the
# tier-1 gate (see ROADMAP.md) and runs the full suite under the race
# detector on top of build, vet and the cyclolint analyzer suite.

GO ?= go

# Ceiling for one pass of the analyzer suite over ./...; the
# cyclolint target fails when analysis wall time exceeds it, so a
# quadratic fixpoint regression in an analyzer breaks the gate instead
# of quietly taxing every CI run.
LINT_BUDGET ?= 60s

.PHONY: check build vet lint cyclolint lint-sarif lint-stats lint-fix-clean test race flake chaos chaos-fuzz bench-check tree-clean bench-metrics bench-ring bench-kernels bench-pairs bench-smoke bench-trace smoke-trace smoke-health

check: build vet lint race bench-check chaos

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs the repo's own analyzer suite (see internal/lint and
# DESIGN.md §9) plus staticcheck when it is installed locally. CI runs
# staticcheck and govulncheck in a dedicated pinned job; locally they are
# optional so a bare toolchain can still run `make check`.
lint: cyclolint
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo staticcheck ./...; staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# cyclolint runs the suite once over every package with its tests
# (_test.go files and external _test packages included), threading facts
# between the module's packages in process; `bin/cyclolint` also takes
# -fix / -json / -sarif.
cyclolint:
	$(GO) build -o bin/cyclolint ./cmd/cyclolint
	./bin/cyclolint -stats -budget $(LINT_BUDGET) ./...

# lint-sarif renders the suite's findings as SARIF 2.1.0 for GitHub code
# scanning. The exit status is ignored: the check gate fails the build,
# this artifact only annotates the PR.
lint-sarif:
	$(GO) build -o bin/cyclolint ./cmd/cyclolint
	./bin/cyclolint -sarif ./... > cyclolint.sarif || true

# lint-stats captures the per-analyzer wall-time breakdown to
# cyclolint-stats.txt (CI uploads it as a per-run artifact) and appends
# one trend row to the committed LINT_STATS.md: date, the commit the
# suite was built from, analyzer count, total wall time. Run it in any PR that changes the
# suite and commit the row — the table makes wall-time creep visible
# long before the LINT_BUDGET gate trips.
lint-stats:
	$(GO) build -o bin/cyclolint ./cmd/cyclolint
	./bin/cyclolint -stats ./... 2> cyclolint-stats.txt; st=$$?; \
	cat cyclolint-stats.txt; [ $$st -eq 0 ] || exit $$st
	printf '| %s | %s | %s | %s |\n' \
		"$$(date -u +%F)" \
		"$$(git rev-parse --short HEAD)" \
		"$$(grep -c 'cyclolint: stats: ' cyclolint-stats.txt | awk '{print $$1 - 1}')" \
		"$$(awk '/cyclolint: stats: total/ {print $$NF}' cyclolint-stats.txt)" \
		>> LINT_STATS.md
	tail -1 LINT_STATS.md

# lint-fix-clean asserts every mechanical fix is already applied: -fix
# over the tree must be a no-op. CI runs it so a committed finding whose
# suggested fix was ignored (instead of applied or suppressed with a
# justification) fails the build.
lint-fix-clean:
	$(GO) build -o bin/cyclolint ./cmd/cyclolint
	./bin/cyclolint -fix ./... || true
	git diff --exit-code

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# flake reruns the concurrency-heavy packages twenty times under the race
# detector: a teardown race that loses one run in ten (the stale EOF that
# TestReplaceHostOverTCP used to trip over) passes `race` most of the time
# and fails here almost surely. Not part of `check` or CI yet: CHANGES.md
# (PR 15) lists the rare timing-dependent test failures it still finds.
flake:
	$(GO) test -race -count=20 ./internal/ring ./internal/core ./internal/rdma/... ./internal/ringq

# bench-check vets and tests the benchmark, which is its own module
# (bench/go.mod), so the root `go build ./...` and `go test ./...` skip it:
# without this a product refactor can break the benchmark's imports and
# nobody notices until the pipeline runs it.
#
# TestSmoke/sql_3way runs untraced (-short): its traced half rejects any
# per-layer reading below zero, and bench/layers.go defines
# query.cold_ring_overhead_ms as op_ms_p50 minus the same two steps
# replayed on a warm cluster. The SQL engine now keeps one warm ring, so
# that difference is truly zero and its sign is noise (-0.7 to -5.8 ms in
# three smoke runs). bench/ is off limits to product PRs; CHANGES.md (PR 17)
# names the benchmark issue that clamps the metric and restores the full
# test. The other three workloads keep their traced smoke test, and
# sql_3way keeps its oracle-checked ops.
bench-check:
	cd bench && $(GO) vet ./... && \
	$(GO) test -race -skip 'TestSmoke/sql_3way' ./... && \
	$(GO) test -race -short -run 'TestSmoke/sql_3way' ./...

# tree-clean fails when building and testing left the checkout modified or
# littered: an artifact missing from .gitignore, or a fixture a test needs
# that was never committed (CI runs it right after `make check`).
tree-clean:
	@st="$$(git status --porcelain)"; [ -z "$$st" ] || { echo "working tree not clean:"; echo "$$st"; exit 1; }

# chaos is the fault-injection e2e tier: the seeded cyclobench scenario
# suite (drop, flap, jitter, slow node, partition) against live mem and
# tcp rings, race-enabled. The unit- and
# package-level chaos tests (TestChaos* in ring, core, chaoslink) already
# run under `race`; this drives the same machinery through the CLI the CI
# fuzz job uses, with a pinned seed so the gate is deterministic.
chaos:
	$(GO) run -race ./cmd/cyclobench -chaos -seed 1

# chaos-fuzz explores a fresh schedule per run (seed derived from the
# clock). The full output — including the reproduce line and the failing
# schedule, if any — lands in chaos_fuzz.txt for CI to upload.
chaos-fuzz:
	$(GO) run -race ./cmd/cyclobench -chaos -seed 0 > chaos_fuzz.txt 2>&1; st=$$?; cat chaos_fuzz.txt; exit $$st

# Proves the instrumentation budget: one hot-path event must cost < 10 ns.
bench-metrics:
	$(GO) test -run NONE -bench . -benchmem ./internal/metrics/

# Proves the flight recorder budget: span begin/end on the hot path must
# not allocate (the -benchmem column must read 0 allocs/op; the zero-alloc
# guard test enforces it).
bench-trace:
	$(GO) test -run NONE -bench 'BenchmarkSpan|BenchmarkPoint' -benchmem ./internal/trace/

# End-to-end flight-recorder smoke: run a small traced 4-node ring join,
# write the Perfetto recording, and print the cyclotrace cost breakdown.
# Artifacts: flight.json (load in ui.perfetto.dev) + flight_breakdown.txt.
smoke-trace:
	$(GO) run ./cmd/roundabout -nodes 4 -tuples 50000 -threads 2 -flightrec flight.json
	$(GO) run ./cmd/cyclotrace flight.json | tee flight_breakdown.txt

# End-to-end live-health smoke: spin a small ring through many rotations
# with the metrics mux up, then follow /health/live once with cyclotop.
# The -json pass proves the SSE payload decodes end to end (the snapshot
# lands in health_snapshot.json for CI to keep); the second pass prints
# the human table into the log.
smoke-health:
	$(GO) build -o bin/roundabout ./cmd/roundabout
	$(GO) build -o bin/cyclotop ./cmd/cyclotop
	./bin/roundabout -nodes 3 -tuples 20000 -threads 2 -rotations 400 -healthint 50ms -metrics 127.0.0.1:19199 & pid=$$!; \
	./bin/cyclotop -once -json -wait 15s http://127.0.0.1:19199/health/live > health_snapshot.json; st=$$?; \
	./bin/cyclotop -once -wait 5s http://127.0.0.1:19199/health/live || true; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	cat health_snapshot.json; exit $$st

# Ring hot-path benchmarks → BENCH_ring.json, five samples each, recorded
# as median with min/max spread. The file keeps its baseline (the parent of
# the last change to the ring's loops; `benchring -rebaseline` on that
# revision's output replaces it). benchring refuses to label a row from a
# dirty tree: commit first, or name the run with LABEL=. The forward
# staging benchmark fails outright if the little-endian fast path ever
# allocates.
bench-ring:
	$(GO) test -run NONE -bench 'BenchmarkRingHop|BenchmarkForwardStage' -benchtime 2s -count 5 ./internal/ring/ > /tmp/bench_ring.$$$$.txt && \
	$(GO) test -run NONE -bench 'BenchmarkEncode|BenchmarkDecode|BenchmarkViewBind' -benchtime 2s -count 5 ./internal/relation/ >> /tmp/bench_ring.$$$$.txt && \
	$(GO) run ./cmd/benchring -o BENCH_ring.json $(if $(LABEL),-label '$(LABEL)') < /tmp/bench_ring.$$$$.txt; \
	rm -f /tmp/bench_ring.$$$$.txt

# Join-kernel, placement and end-to-end benchmarks → BENCH_kernels.json, five
# samples each, recorded as median with min/max spread. The file keeps its
# baseline (the parent of the last change to any of them); BASE=<rev>
# measures that revision from a `git archive` first and records it as the
# new baseline — benchmarks BASE does not have yet get no baseline row — so
# a before/after row is one command: `make bench-kernels BASE=HEAD~1`.
# benchring refuses to label a row from a dirty tree.
KERNEL_BENCH = 'Benchmark(SortMergeSetup|SortMergeJoinPhase|SortMergeHost|HashJoinSetup|HashJoinSetupRotating|HashJoinProbe|HashJoinProbeOrdered|HashJoinProbeZipf|CycloJoinEndToEnd|PartitionByHash|Placement|SQL3Way|SQLAlternating)$$'
KERNEL_PKGS = . ./internal/relation
KERNEL_LEDGER = -o BENCH_kernels.json -cmd 'make bench-kernels' \
	-desc 'Join-kernel budget: sort-merge and hash-join setup and join phases (1M tuples), the sort-merge merge as a ring host of sortmerge_band runs it (100 k of S in a 1.6 M key domain, band ±2, against a fragment ordered by SetupRotating, counted and emitted, counted under a band of ±1000, and the Station of that share), the hash probe as a ring host runs it (one host-share of S against a fragment ordered by SetupRotating, counted and emitted; the price of that order; and the same probe against Zipf-skewed S), a whole 4-node cyclo-join, key placement (PartitionByHash per tuple; Placement: one two-way count stationed by position and by key, on either side of the placement rule of the SQL engine) a three-way SQL count in the three shapes that rule tells apart (even tables both cold, every table registered again before each op, and warm, on tables the engine keeps stationed), and that count alternating with a two-way count over two of its tables on one engine; stations/op is core setup calls per op. Medians of -count 5; baseline is the parent of the last change to any of them.'
bench-kernels:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	if [ -n "$(BASE)" ]; then \
		mkdir "$$tmp/base" && git archive $(BASE) | tar -x -C "$$tmp/base"; \
		(cd "$$tmp/base" && $(GO) test -run NONE -bench $(KERNEL_BENCH) -benchmem -count 5 $(KERNEL_PKGS)) > "$$tmp/base.txt"; \
		$(GO) run ./cmd/benchring $(KERNEL_LEDGER) -rebaseline -label "$$(git rev-parse --short $(BASE))" < "$$tmp/base.txt"; \
	fi; \
	$(GO) test -run NONE -bench $(KERNEL_BENCH) -benchmem -count 5 $(KERNEL_PKGS) > "$$tmp/cur.txt"; \
	$(GO) run ./cmd/benchring $(KERNEL_LEDGER) $(if $(LABEL),-label '$(LABEL)') < "$$tmp/cur.txt"

# Paired end-to-end runs, the measurement a performance claim rests on:
# `make bench-pairs W=rotate_wide_tcp BASE=HEAD~1 [N=10] [SEED=1] [TRACE=0]`
# extracts BASE with `git archive` (as bench-kernels does) and runs
# bench/run.sh on it and on the working tree N times each, alternating who
# goes first; cmd/benchpairs prints every run and, per metric, both medians,
# quartiles, the pairs the working tree won and the failed operations.
bench-pairs:
	@[ -n "$(W)" ] && [ -n "$(BASE)" ] || { echo "usage: make bench-pairs W=<workload> BASE=<rev> [N=10] [SEED=1] [TRACE=0]"; exit 2; }
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/base" && git archive $(BASE) | tar -x -C "$$tmp/base"; \
	$(GO) run ./cmd/benchpairs -base "$$tmp/base" -workload $(W) $(if $(N),-n $(N)) $(if $(SEED),-seed $(SEED)) $(if $(TRACE),-trace $(TRACE))

# Short-form zero-alloc gate for CI: one quick pass over the guarded
# hot-path benchmarks, failing on any allocs/op > 0. The full sweep that
# rewrites BENCH_ring.json stays in bench-ring.
bench-smoke:
	$(GO) test -run NONE -bench 'BenchmarkForwardStage' -benchtime 100x ./internal/ring/ > /tmp/bench_smoke.$$$$.txt && \
	$(GO) test -run NONE -bench 'BenchmarkEncode$$|BenchmarkViewBind' -benchtime 1000x ./internal/relation/ >> /tmp/bench_smoke.$$$$.txt && \
	$(GO) run ./cmd/benchring -guard BenchmarkForwardStage,BenchmarkEncode,BenchmarkViewBind < /tmp/bench_smoke.$$$$.txt; \
	status=$$?; rm -f /tmp/bench_smoke.$$$$.txt; exit $$status
