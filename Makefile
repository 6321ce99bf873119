# Developer entry points. `make` with no target builds everything.

GO ?= go

.PHONY: all build test race vet lint lint-json race-assert race-parallel topo-equivalence fusion-equivalence figure-equivalence bench-smoke figures scale-bench parallel-bench million-bench scale-smoke serve-smoke serve-bench fusion-bench fusion-smoke profile clean

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
# double-release and leak accounting, kernel firing-order monotonicity,
# shard-boundary conservation) under the race detector.
race-assert:
	$(GO) test -race -tags pdosassert ./internal/sim ./internal/netem ./internal/tcp ./internal/experiments

# race-parallel drives the parallel-engine determinism contracts under the
# race detector: the randomized engine/topology equivalence suites and the
# cross-shard packet portal.
race-parallel:
	$(GO) test -race -run 'TestEngine|TestSharded|TestCrossShard' ./internal/sim ./internal/netem ./internal/experiments

# topo-equivalence is the topology-graph layer's contract gate: topo.Build
# runs of the dumbbell and the test-bed must match each other at 1/2/4/8
# workers and hash to the digests the retired hand-wired builders recorded
# (internal/experiments/testdata/topo.sha256), the shard plan must match its
# pinned table, and the multi-bottleneck generators must hold serial ≡
# sharded — all under the race detector.
topo-equivalence:
	$(GO) test -race -count=1 \
		-run 'TestSharded|TestTestbed|TestPlan|TestParkingLot|TestCrossTraffic|TestBuild' \
		./internal/experiments ./internal/topo

# fusion-equivalence is the event-fusion contract gate (DESIGN.md §14):
# randomized dumbbell, parking-lot, and cross-traffic scenarios built with
# GoldenLinks (the verbatim two-event serialize→propagate schedule) and on
# the default fused path must produce byte-identical observables — delivered
# bytes, per-flow accounts, TCP statistics, drop counters, normalized
# processed-event totals, figure CSVs — at 1/2/4/8 workers, while the fused
# build fires strictly fewer kernel events. Under the race detector.
fusion-equivalence:
	$(GO) test -race -count=1 -run TestFusionEquivalence ./internal/experiments

# figure-equivalence is the figure pipeline's byte-identity gate: every
# figure regenerated through the scenario-native path (documents → run cache
# → artifact assembly, internal/figures) must hash to its pinned digest in
# internal/figures/testdata/figures.sha256 (recorded from the retired
# experiments drivers), every figure must have exactly one pin per pinned
# scale, and a warm AllFigures replay must be served entirely from the
# content-addressed cache. Under the race detector.
figure-equivalence:
	$(GO) test -race -count=1 -run 'TestFigureEquivalence|TestPinsCoverRegistry|TestAllFiguresWarmCache' ./internal/figures

# bench-smoke runs the hot-path micro-benchmarks once — enough to catch an
# allocation or throughput regression without the full figure benches.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkKernelEvents|BenchmarkLinkDropTail|BenchmarkLinkRED|BenchmarkREDEnqueue|BenchmarkTCPLoopbackSecond' -benchtime 1s .

# figures regenerates the quick-scale figure set with the hot-path benchmark
# report alongside.
figures:
	$(GO) run ./cmd/pdos-bench -scale quick -out results -parallel 4 -bench-json results/BENCH_1.json

# scale-bench regenerates the committed BENCH_2.json: the many-flow scaling
# sweep (100 → 50k victim flows, wheel vs heap kernel) plus the hot paths.
# Takes tens of minutes; run it on an otherwise idle machine.
scale-bench:
	$(GO) run ./cmd/pdos-bench -scale-bench BENCH_2.json

# parallel-bench regenerates the committed BENCH_3.json: the conservative
# parallel engine vs the serial wheel kernel at 2/4/8 workers over 10k and
# 50k flows. Takes tens of minutes; the ≥2.5x speedup floor only means
# anything on a machine with ≥4 idle cores.
parallel-bench:
	$(GO) run ./cmd/pdos-bench -parallel-bench BENCH_3.json -workers 2,4,8

# million-bench regenerates the committed BENCH_4.json: the mixed-fidelity
# scale sweep up to one million flows (10k packet-accurate foreground + a
# fluid-aggregated background). Takes ~10+ minutes on one idle core.
million-bench:
	$(GO) run ./cmd/pdos-bench -scale-bench BENCH_4.json \
		-foreground-flows 10000 -scale-flows 10000,100000,1000000

# scale-smoke is the CI-sized slice of million-bench: a tiny two-point
# mixed-fidelity sweep with truncated measurement windows and the heap guard
# armed, exercising the foreground/fluid split, the OOM-skip bookkeeping,
# and the report schema end to end in under a minute. The report goes to a
# scratch file — only the full million-bench run updates BENCH_4.json.
scale-smoke:
	$(GO) run ./cmd/pdos-bench -scale-bench /tmp/scale-smoke.json \
		-foreground-flows 200 -scale-flows 200,2000 \
		-scale-measure-sec 3 -max-heap-mb 4096

# serve-smoke is the pdos-serve CI gate: the shipped fig8-style scenario
# submitted twice over real HTTP — the first run computes, the second must be
# a byte-identical cache hit, and both must match a direct kernel recompute.
serve-smoke:
	$(GO) test -race -count=1 -run TestServeSmoke ./internal/serve

# serve-bench regenerates the committed BENCH_5.json: a live pdos-serve
# instance with a fresh cache, one scenario sweep cold and the same sweep
# warm, recording the memoization speedup (guarded at >= 10x), the cache
# counters, and the byte-identity of cached artifacts vs direct recomputes.
serve-bench:
	$(GO) run ./cmd/pdos-bench -serve-bench BENCH_5.json

# fusion-bench regenerates the committed BENCH_6.json: the attacked 10k-flow
# scale point on the golden two-event link schedule versus the fused
# one-event-per-hop default (DESIGN.md §14), recording the raw
# kernel-events-per-packet reduction (guarded at >= 25%), the wall speedup,
# allocs/packet, and the byte-identity checks. Takes ~5 minutes on one idle
# core.
fusion-bench:
	$(GO) run ./cmd/pdos-bench -fusion-bench BENCH_6.json -fusion-flows 10000

# fusion-smoke is the CI-sized slice of fusion-bench: the same golden-vs-
# fused pipeline at a 200-flow population with truncated windows, asserting
# the report schema, the byte-identity bits, and that fusion actually elides
# events, in seconds. The report goes to a scratch file — only the full
# fusion-bench run updates BENCH_6.json.
fusion-smoke:
	$(GO) run ./cmd/pdos-bench -fusion-bench /tmp/fusion-smoke.json \
		-fusion-flows 200 -scale-measure-sec 3

# profile captures CPU and heap pprof profiles of a representative figure
# regeneration for `go tool pprof cpu.pprof` digestion.
profile:
	$(GO) run ./cmd/pdos-bench -scale quick -figures fig6 -out results \
		-cpuprofile cpu.pprof -memprofile mem.pprof

clean:
	rm -rf results cpu.pprof mem.pprof
