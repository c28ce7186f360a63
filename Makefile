# Development targets. `make check` is the gate every change must
# pass: it enforces the telemetry layer's race-safety guarantee by
# running the full suite under the race detector (see
# internal/core/telemetry_test.go).

GO ?= go

.PHONY: check fmt vet build test race fuzz-smoke perfbench-test bench bench-quick bench-incremental bench-incremental-quick bench-resolve bench-resolve-quick bench-sat bench-sat-quick bench-telemetry bench-telemetry-quick bench-service bench-service-quick bench-parallel bench-parallel-quick

check: fmt vet build race fuzz-smoke perfbench-test bench-incremental-quick bench-resolve-quick bench-telemetry-quick bench-service-quick bench-parallel-quick

# Fails listing the files that need gofmt; run `gofmt -w .` to fix.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# -short skips the multi-minute bench figure sweeps (see
# internal/bench/bench_test.go skipIfShort): under the race detector
# they exceed the test binary's default timeout. `make test` still
# runs them race-free.
race:
	$(GO) test -race -short ./...

# perfbench (the repository benchmark, see perfbench/README.md) is a
# module of its own, so the root `go test ./...` never reaches its
# self-tests.
perfbench-test:
	cd perfbench && $(GO) vet . && $(GO) test .

# Quick benchmark runs inside `make check` write here, so the gate never
# overwrites the committed full-scale BENCH_*.json artifacts.
QUICK_OUT := .bench_build/quick

$(QUICK_OUT):
	mkdir -p $@

# Seed benchmarks (paper headline metrics); -benchmem surfaces the
# nil-tracer 0 allocs/op guarantee in obs and sat.
bench:
	$(GO) test -bench=. -benchmem ./...

bench-quick:
	$(GO) test -bench='NilTracer|SolveProgressOverhead' -benchmem ./internal/obs/ ./internal/sat/

# Warm-vs-cold session benchmark (per-destination solve cache); writes
# BENCH_incremental.json. The quick variant runs as part of `make
# check` so the cache's speedup is exercised on every gate.
bench-incremental:
	$(GO) run ./cmd/aedbench -experiment incremental -scale full -out BENCH_incremental.json

bench-incremental-quick: | $(QUICK_OUT)
	$(GO) run ./cmd/aedbench -experiment incremental -scale quick -out $(QUICK_OUT)/BENCH_incremental.json

# Live-instance re-solve benchmark (tier-2 of the session ladder): a
# one-line local-preference edit re-solved by flipping retractable
# bindings on the warm solver, against the cold and re-encode
# baselines; writes BENCH_resolve.json. The quick variant runs as part
# of `make check`.
bench-resolve:
	$(GO) run ./cmd/aedbench -experiment resolve -scale full -out BENCH_resolve.json

bench-resolve-quick: | $(QUICK_OUT)
	$(GO) run ./cmd/aedbench -experiment resolve -scale quick -out $(QUICK_OUT)/BENCH_resolve.json

# Short fuzz passes on every gate: ten seconds of differential CDCL
# fuzzing against brute-force enumeration (assumptions, solver reuse,
# compaction); five seconds of MaxSAT fuzzing against brute-force optima
# across the default search sequence (core-guided, an edit, linear
# descent on the same context); five seconds of order-encoding
# comparator fuzzing against integer arithmetic (memoized comparisons
# reused across offsets with the same shift); ten seconds of session
# fuzzing — random edit sequences on one live session, its instances
# parked between solves, each step checked against a cold synthesis and
# the simulator;
# five seconds each on the post-solve fast paths against the algorithms
# they replaced — the section-level config diff against the
# whole-network leaf-set diff (random section edits, duplicate keys,
# routers added, removed and emptied) and the indexed simulator against
# the map-keyed fixpoint (filters, costs, redistribution, statics,
# disabled routers);
# five seconds each on the untrusted-input parsers — policy, objective
# and config text round trips, and api.Request.Materialize never
# panicking and wrapping every error in ErrInvalidRequest; then five
# seconds each on the AEDT telemetry codec — round-trip equality and
# decoder robustness on arbitrary bytes (`go test -fuzz` takes one
# target per invocation).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzSolver -fuzztime 10s ./internal/sat/
	$(GO) test -run '^$$' -fuzz FuzzMaxSAT -fuzztime 5s ./internal/smt/
	$(GO) test -run '^$$' -fuzz FuzzNatCompare -fuzztime 5s ./internal/smt/
	$(GO) test -run '^$$' -fuzz FuzzSession -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzDiff -fuzztime 5s ./internal/config/
	$(GO) test -run '^$$' -fuzz FuzzRoutes -fuzztime 5s ./internal/simulate/
	$(GO) test -run '^$$' -fuzz FuzzPolicyParse -fuzztime 5s ./internal/policy/
	$(GO) test -run '^$$' -fuzz FuzzObjectiveParse -fuzztime 5s ./internal/objective/
	$(GO) test -run '^$$' -fuzz FuzzConfigParse -fuzztime 5s ./internal/config/
	$(GO) test -run '^$$' -fuzz FuzzMaterialize -fuzztime 5s ./internal/api/
	$(GO) test -run '^$$' -fuzz FuzzAEDTRoundTrip -fuzztime 5s ./internal/obs/aedt/
	$(GO) test -run '^$$' -fuzz FuzzAEDTDecode -fuzztime 5s ./internal/obs/aedt/

# SAT-layer performance: propagation/conflict microbenchmarks
# (BenchmarkPropagate must report 0 allocs/op) plus the satperf
# experiment, which writes BENCH_satperf.json — cold synthesis time,
# propagations/s, peak clause-arena bytes, and CNF size with structural
# hash-consing on vs off. See docs/PERFORMANCE.md.
bench-sat:
	$(GO) test -run '^$$' -bench 'Propagate|ConflictAnalysis' -benchmem ./internal/sat/
	$(GO) run ./cmd/aedbench -experiment satperf -scale full -out BENCH_satperf.json

bench-sat-quick: | $(QUICK_OUT)
	$(GO) test -run '^$$' -bench 'Propagate|ConflictAnalysis' -benchmem ./internal/sat/
	$(GO) run ./cmd/aedbench -experiment satperf -scale quick -out $(QUICK_OUT)/BENCH_satperf.json

# Telemetry-format benchmark: the AEDT binary codec against the JSONL
# baseline (bytes/event, encode/decode throughput, steady-state decode
# allocations — BenchmarkReaderNext must report 0 allocs/op); writes
# BENCH_telemetry.json. The quick variant runs as part of `make check`.
bench-telemetry:
	$(GO) test -run '^$$' -bench 'ReaderNext|WriterAppend|RecorderEventsAppend' -benchmem ./internal/obs/...
	$(GO) run ./cmd/aedbench -experiment telemetry -scale full -out BENCH_telemetry.json

bench-telemetry-quick: | $(QUICK_OUT)
	$(GO) run ./cmd/aedbench -experiment telemetry -scale quick -out $(QUICK_OUT)/BENCH_telemetry.json

# Parallel-synthesis benchmark: destination scaling across worker
# counts (LPT scheduling over per-destination instances); writes
# BENCH_parallel.json. Speedups are core-bounded — the artifact records
# GOMAXPROCS and the CPU count, so rebaseline it on a multi-core
# machine; see docs/PERFORMANCE.md. The quick variant runs as part of
# `make check`.
bench-parallel:
	$(GO) run ./cmd/aedbench -experiment parallel -scale full -out BENCH_parallel.json

bench-parallel-quick: | $(QUICK_OUT)
	$(GO) run ./cmd/aedbench -experiment parallel -scale quick -out $(QUICK_OUT)/BENCH_parallel.json

# aedd service load benchmark: an in-process service driven over real
# HTTP with mixed cold/warm/watch traffic, an oversubscribed burst
# (must reject with the queue-full error), and a shutdown drain (must
# drop zero in-flight solves); writes BENCH_service.json. The quick
# variant runs as part of `make check`, so the service's admission,
# cache, and drain guarantees are exercised on every gate.
bench-service:
	$(GO) run ./cmd/aedbench -experiment service -scale full -out BENCH_service.json

bench-service-quick: | $(QUICK_OUT)
	$(GO) run ./cmd/aedbench -experiment service -scale quick -out $(QUICK_OUT)/BENCH_service.json
