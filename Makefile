# Developer entry points. `make` with no target builds everything.

GO ?= go

.PHONY: all build test race vet lint lint-json race-assert race-parallel topo-equivalence fusion-equivalence figure-equivalence bench-smoke study-smoke fuzz-smoke bench bench-compare figures serve-smoke profile clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# lint runs pdos-lint (the stdlib-only analyzer suite enforcing the
# determinism, pool-ownership, hot-path, float-equality, virtual-time,
# shard-isolation, and counter-conservation contracts — see DESIGN.md §10 and
# §15) over the module, then fails on any gofmt drift.
lint:
	$(GO) run ./cmd/pdos-lint ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# lint-json writes the machine-readable diagnostics to pdos-lint.json for the
# CI artifact (always written, even when findings make the tool exit 1 —
# `make lint` is the gate, this is the report).
lint-json:
	$(GO) run ./cmd/pdos-lint -json ./... > pdos-lint.json || true
	@echo "wrote pdos-lint.json"

# race-assert reruns the determinism/equivalence suites and the assertion
# tests with the pdosassert runtime invariants compiled in (pool
# double-release and leak accounting, kernel firing-order monotonicity, the
# wheel's bookkeeping and an empty run whenever nothing is pending,
# shard-boundary conservation) under the race detector — also over the
# paced attack source, every graph build, and pdos-trace's EventTrace, the
# departure tap riding the fused chain event.
race-assert:
	$(GO) test -race -tags pdosassert ./internal/sim ./internal/netem ./internal/tcp ./internal/experiments \
		./internal/attack ./internal/topo ./cmd/pdos-trace

# race-parallel drives the parallel-engine determinism contracts under the
# race detector: the randomized engine/topology equivalence suites and the
# cross-shard packet portal.
race-parallel:
	$(GO) test -race -run 'TestEngine|TestSharded|TestCrossShard' ./internal/sim ./internal/netem ./internal/experiments

# topo-equivalence is the topology-graph layer's contract gate: topo.Build
# runs of the dumbbell and the test-bed must match each other at 1/2/4/8
# workers and hash to the digests the retired hand-wired builders recorded
# (internal/experiments/testdata/topo.sha256), the pulsed dumbbells must
# match on the heap-only kernel too (wheel ≡ heap end to end), the shard
# plan must match its pinned table, and the multi-bottleneck generators must
# hold serial ≡ sharded — all under the race detector.
topo-equivalence:
	$(GO) test -race -count=1 \
		-run 'TestSharded|TestTestbed|TestPlan|TestParkingLot|TestCrossTraffic|TestBuild' \
		./internal/experiments ./internal/topo

# fusion-equivalence is the event-fusion contract gate (DESIGN.md §14):
# randomized dumbbell, parking-lot, and cross-traffic scenarios built with
# GoldenLinks (the verbatim two-event serialize→propagate schedule) and on
# the default fused path must produce byte-identical observables — delivered
# bytes, per-flow accounts, TCP statistics, drop counters per class,
# normalized processed-event totals, figure CSVs, and at 1 worker the queue,
# cwnd and SRTT captures — at 1/2/4/8 workers, while the fused build fires
# strictly fewer kernel events. The fused leg's tapped bottleneck runs fused
# at 1 worker, under a jitter meter too, whose per-flow estimates must match
# a golden jitter leg's. Under the race detector.
fusion-equivalence:
	$(GO) test -race -count=1 -run TestFusionEquivalence ./internal/experiments

# figure-equivalence is the figure pipeline's byte-identity gate: every
# figure regenerated through the scenario-native path (documents → run cache
# → artifact assembly, internal/figures) must hash to its pinned digest in
# internal/figures/testdata/figures.sha256 (recorded from the retired
# experiments drivers), every figure must have exactly one pin per pinned
# scale, and a warm AllFigures replay must be served entirely from the
# content-addressed cache. Under the race detector. The many-flow scale
# figure is pinned like the rest.
figure-equivalence:
	$(GO) test -race -count=1 -run 'TestFigureEquivalence|TestPinsCoverRegistry|TestAllFiguresWarmCache' ./internal/figures

# bench-smoke runs the hot-path micro-benchmarks once — enough to catch an
# allocation or throughput regression without the full figure benches: the
# root package's kernel, link and TCP bodies, then the timing wheel's two
# extremes in internal/sim — BenchmarkKernelCascade (100,000 timers 1–300 ms
# out: dense upper-level slots re-bucketed down the levels) and
# BenchmarkKernelChainWheel (one timer at a time, filed in the wheel) —
# then BenchmarkKernelColdHandlers (100,000 component handlers and arguments
# larger than L2, drained several to a level-0 slot: the drain's prefetch)
# and BenchmarkKernelDenseSlot (10,000 events at one instant: a run long
# enough for the O(n log n) sort, ordered on (at, seq) alone).
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkKernelEvents|BenchmarkLinkDropTail|BenchmarkLinkRED|BenchmarkREDEnqueue|BenchmarkTCPLoopbackSecond' -benchtime 1s .
	$(GO) test -run '^$$' -bench 'BenchmarkKernelCascade|BenchmarkKernelChainWheel|BenchmarkKernelColdHandlers|BenchmarkKernelDenseSlot' -benchtime 1s ./internal/sim

# study-smoke runs once every caller of the facade studies outside the test
# suite: each example under examples/ (stdout discarded here; each example's
# main_test.go pins it in testdata/stdout.sha256), then the figure,
# ablation, extension and maximization benches for one iteration each, whose
# reported metrics (peak_gain, shrew_excess_gain, shrew_mitigation,
# fct_inflation, gamma_peak_gap, ...) are deterministic.
study-smoke:
	@for d in examples/*/; do \
		echo "$(GO) run ./$$d"; \
		$(GO) run ./$$d > /dev/null || exit 1; \
	done
	$(GO) test -run '^$$' -bench 'BenchmarkFig|BenchmarkAblation|BenchmarkExt|BenchmarkMaximization' -benchtime 1x .

# fuzz-smoke runs each stdlib fuzz target for FUZZTIME (go test fuzzes one
# target per invocation): the kernel's wheel-versus-heap firing order, a
# fused link against its golden twin, the analysis and detector numerics,
# and scenario documents through Load, Key and Expand. About 80 s at the
# default FUZZTIME. Their seed corpora (f.Add and testdata/fuzz/) also run in
# every plain `go test`; a failing input is written to testdata/fuzz/.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzKernelOrder$$' -fuzztime $(FUZZTIME) ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzLinkSchedule$$' -fuzztime $(FUZZTIME) ./internal/netem
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime $(FUZZTIME) ./internal/scenario
	$(GO) test -run '^$$' -fuzz '^FuzzPAA$$' -fuzztime $(FUZZTIME) ./internal/analysis
	$(GO) test -run '^$$' -fuzz '^FuzzAutocorrelation$$' -fuzztime $(FUZZTIME) ./internal/analysis
	$(GO) test -run '^$$' -fuzz '^FuzzDTWDistance$$' -fuzztime $(FUZZTIME) ./internal/detect
	$(GO) test -run '^$$' -fuzz '^FuzzDetectors$$' -fuzztime $(FUZZTIME) ./internal/detect

# bench runs the repository's one benchmark (benchmark/, its own module):
# four named workloads on the production scenario path, end-to-end and
# per-layer metrics, one JSON result per run. Pass flags through ARGS, e.g.
# `make bench ARGS="--workload attack-10k --seed 1 --seconds 20 --out /tmp/new"`;
# see benchmark/README.md.
bench:
	bash benchmark/run.sh $(ARGS)

# bench-compare applies the benchmark's acceptance rules to two result
# directories written by `make bench ARGS="... --out DIR"`, an old and a new
# one: `make bench-compare OLD=/tmp/old NEW=/tmp/new` (relative paths resolve
# from benchmark/). Exits 1 when any
# end-to-end metric regressed by more than its bound.
bench-compare:
	cd benchmark && $(GO) run ./compare $(OLD) $(NEW)

# figures regenerates the quick-scale figure set.
figures:
	$(GO) run ./cmd/pdos-bench -scale quick -out results -parallel 4

# serve-smoke is the pdos-serve CI gate: the shipped fig8-style scenario
# submitted twice over real HTTP — the first run computes, the second must be
# a byte-identical cache hit, and both must match a direct kernel recompute.
serve-smoke:
	$(GO) test -race -count=1 -run TestServeSmoke ./internal/serve

# profile captures CPU and heap pprof profiles of a representative figure
# regeneration for `go tool pprof cpu.pprof` digestion.
profile:
	$(GO) run ./cmd/pdos-bench -scale quick -figures fig6 -out results \
		-cpuprofile cpu.pprof -memprofile mem.pprof

clean:
	rm -rf results cpu.pprof mem.pprof
