# Tier-1 gate: everything `make check` runs must stay green.
GO ?= go

.PHONY: all build test race vet lint litmus conformance bench bench-all benchdiff profile zsimd check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The project-native static-analysis suite (cmd/zlint): maprange, walltime,
# globalmut, atomicmix, errdrop. See DESIGN.md "Determinism rules". Any
# unsuppressed finding exits nonzero; suppress with
# `//zlint:ignore <analyzer> <reason>` (the reason is mandatory).
lint:
	$(GO) run ./cmd/zlint ./...

test:
	$(GO) test ./...

# The dynamic backstop for the static globalmut/atomicmix analyzers: the
# race detector over the short test suite.
race:
	$(GO) test -race -short ./...

# The litmus suite: every litmus program on every memory system with the
# conformance checker attached; nonzero exit on any non-conformance.
litmus:
	$(GO) run ./cmd/zsim -litmus

# Every application on every memory system under the conformance checker.
conformance:
	$(GO) run ./cmd/paperbench -conformance

# The perf-trajectory benchmarks: the kernel hot loop (fast-path Sync cost
# vs the coroutine-handoff worst case among 2 and 64 processors) and the
# grid benchmarks (litmus suite and full figure matrix at increasing
# worker-pool bounds), then the full regeneration's timing/throughput record.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkEngineHotLoop|BenchmarkSyncRoundtrip' -benchmem ./internal/sim
	$(GO) test -run '^$$' -bench 'BenchmarkLitmusSuite|BenchmarkFigureGrid' -benchmem .
	$(GO) run ./cmd/paperbench -bench-json BENCH_baseline.json > /dev/null

# Every benchmark in the repository (slow).
bench-all:
	$(GO) test -bench . -benchmem

# Profile the small-scale sweep serially (so the CPU profile reflects the
# simulation hot path, not worker-pool scheduling). Inspect with
# `go tool pprof cpu.pprof` / `go tool pprof mem.pprof`.
profile:
	$(GO) run ./cmd/paperbench -scale small -parallel 1 -cpuprofile cpu.pprof -memprofile mem.pprof > /dev/null
	@echo "wrote cpu.pprof and mem.pprof"

# The regression gate CI runs: regenerate a fresh record and compare it
# against the blessed baseline. To bless a new baseline after a deliberate
# perf change, run `make bench` and commit BENCH_baseline.json.
benchdiff:
	$(GO) run ./cmd/paperbench -bench-json BENCH_ci.json > /dev/null
	$(GO) run ./cmd/benchdiff BENCH_baseline.json BENCH_ci.json -tolerance 25%

# The zsimd integration harness: API-only daemon tests (cache-hit byte
# identity, fault injection, queue saturation, cancellation) under the
# race detector. Also part of `make race` via ./...; kept addressable so
# daemon changes can be gated in isolation.
zsimd:
	$(GO) test ./internal/zsimdtest/... -race -short

check: vet lint build test race litmus conformance zsimd
