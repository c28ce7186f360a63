# Development targets. `make check` is the gate every change must
# pass: it enforces the telemetry layer's race-safety guarantee by
# running the full suite under the race detector (see
# internal/core/telemetry_test.go).

GO ?= go

.PHONY: check fmt vet build test race fuzz-smoke perfbench-test bench bench-quick

check: fmt vet build race fuzz-smoke perfbench-test

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

# Go microbenchmarks; -benchmem surfaces the 0 allocs/op guarantees.
# End-to-end performance is measured by perfbench (perfbench/README.md).
bench:
	$(GO) test -bench=. -benchmem ./...

# The allocation-guarded microbenchmarks only: the nil tracer, CDCL
# propagation and conflict analysis (BenchmarkPropagate must report 0
# allocs/op), the AEDT codec (BenchmarkReaderNext must report 0
# allocs/op), and a session step's bookkeeping on the 12x3 fabric: the
# post-solve diff and simulator check (TestPostSolveAllocs bounds
# them) and one call's fingerprint pass (TestSessionFingerprintAllocs).
bench-quick:
	$(GO) test -run '^$$' -bench='NilTracer|SolveProgressOverhead|Propagate|ConflictAnalysis|ReaderNext|WriterAppend|RecorderEventsAppend' -benchmem ./internal/sat/ ./internal/obs/...
	$(GO) test -run '^$$' -bench='^Benchmark(Diff|CheckAll|SessionFingerprint)$$' -benchmem ./internal/bench/ ./internal/core/

# Short fuzz passes on every gate: ten seconds of differential CDCL
# fuzzing against brute-force enumeration (assumptions, solver reuse,
# compaction); five seconds of MaxSAT fuzzing against brute-force optima
# across the default search sequence (core-guided, an edit, linear
# descent on the same context); five seconds of order-encoding
# comparator fuzzing against integer arithmetic (each comparison
# asserted as clauses under a guard, a threshold literal also read from
# the model); five seconds of gate fuzzing against evaluation under
# every assignment (random circuits built as And/Or gates and asserted
# as clauses: plainly, under a guard, and retractably while active,
# retracted and reasserted; repeated subcircuits both shared and
# rebuilt: structural duplicates that nothing merges, each built on its
# own); ten seconds of session
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
	$(GO) test -run '^$$' -fuzz FuzzAssert -fuzztime 5s ./internal/smt/
	$(GO) test -run '^$$' -fuzz FuzzSession -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzDiff -fuzztime 5s ./internal/config/
	$(GO) test -run '^$$' -fuzz FuzzRoutes -fuzztime 5s ./internal/simulate/
	$(GO) test -run '^$$' -fuzz FuzzPolicyParse -fuzztime 5s ./internal/policy/
	$(GO) test -run '^$$' -fuzz FuzzObjectiveParse -fuzztime 5s ./internal/objective/
	$(GO) test -run '^$$' -fuzz FuzzConfigParse -fuzztime 5s ./internal/config/
	$(GO) test -run '^$$' -fuzz FuzzMaterialize -fuzztime 5s ./internal/api/
	$(GO) test -run '^$$' -fuzz FuzzAEDTRoundTrip -fuzztime 5s ./internal/obs/aedt/
	$(GO) test -run '^$$' -fuzz FuzzAEDTDecode -fuzztime 5s ./internal/obs/aedt/

