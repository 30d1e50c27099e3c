# Standard development entry points. All targets use only the Go
# toolchain; there are no external dependencies.

GO ?= go

.PHONY: all build test race test-manifest bench bench-ml bench-serve bench-smoke bench-json bench-check ci fmt-check vet fmt fuzz

all: build test

build:
	$(GO) build ./...

# test runs the full suite, including the Workers=1 vs Workers=N
# equivalence suites and the golden-file loop regression.
test:
	$(GO) test ./...

# race re-runs everything under the race detector; the worker pool and
# every parallelized hot path must stay clean here. It includes every
# robustness, determinism and oracle suite (fault injection, serving
# chaos, histogram engine, feedback durability, snapshot persistence,
# interpretation cache).
race:
	$(GO) test -race ./...

# test-manifest pins the contract suites by name: every "<package>
# <test>" line of contract_tests.txt must still be listed by
# `go test -list`, so renaming or deleting a contract test fails CI
# until the manifest is edited with it.
CONTRACT_TESTS = contract_tests.txt
test-manifest:
	@for pkg in $$(awk '!/^#/ && NF {print $$1}' $(CONTRACT_TESTS) | sort -u); do \
		$(GO) test -list . $$pkg | awk -v pkg=$$pkg '/^(Test|Example|Fuzz)/ {print pkg, $$1}'; \
	done | awk 'FILENAME == "-" {have[$$1 " " $$2] = 1; next} \
		!/^#/ && NF && !(($$1 " " $$2) in have) {print "missing contract test:", $$1, $$2; bad = 1} \
		END {exit bad}' - $(CONTRACT_TESTS)

# bench reports the paper-reproduction metrics and the serial-vs-parallel
# scaling of the three parallelized hot paths.
bench:
	$(GO) test -bench . -benchmem -benchtime 1x -run XXX .

# bench-ml sweeps the engine benchmarks — training paths (tree/forest/
# GBDT/AdaBoost fit, AutoML generation), batch predict paths, ALE/PDP
# committee, feedback loop — into results/bench_current.txt.
bench-ml:
	$(GO) test -run '^$$' -bench . -benchmem \
		./internal/ml/ ./internal/interpret/ ./internal/core/ ./internal/automl/ \
		| tee results/bench_current.txt

# bench-serve runs the end-to-end serving throughput benchmarks (predict
# coalescing, ingest with the off-path drift monitor, cached
# interpretation) into results/bench_serve_current.txt. The committed
# results/bench_serve_baseline.txt is the frozen sweep of the per-request,
# inline-drift and uncached paths these mechanisms replaced, so the
# speedups in BENCH_SERVE.json stay the mechanisms themselves.
SERVE_BENCHES = BenchmarkServePredictLoad64|BenchmarkFeedbackIngestDrift|BenchmarkInterpretLoad32
bench-serve:
	$(GO) test ./internal/serve/ -run '^$$' -bench '$(SERVE_BENCHES)' \
		-benchmem -benchtime 2s \
		| tee results/bench_serve_current.txt

# bench-smoke executes every benchmark exactly once as a correctness
# gate (not a measurement): a benchmark that panics or regresses into an
# error fails CI even when nobody is timing it.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x \
		./internal/ml/ ./internal/interpret/ ./internal/core/ \
		./internal/automl/ ./internal/serve/

# bench-json renders the baseline-vs-current sweep comparisons to
# BENCH_ML.json and BENCH_SERVE.json at the repo root (run bench-ml and
# bench-serve first to refresh the inputs).
bench-json:
	$(GO) run ./cmd/benchjson \
		-baseline results/bench_baseline.txt \
		-current results/bench_current.txt \
		-out BENCH_ML.json
	$(GO) run ./cmd/benchjson \
		-baseline results/bench_serve_baseline.txt \
		-current results/bench_serve_current.txt \
		-out BENCH_SERVE.json

# bench-check gates the committed sweeps against the committed JSON
# reports: a sweep whose ns/op exceeds the recorded value by more than
# BENCH_THRESHOLD fails, so a perf regression must be fixed or explicitly
# acknowledged by regenerating the JSON (bench-ml/bench-serve +
# bench-json). Pure file comparison: no benchmarks run here.
BENCH_THRESHOLD ?= 1.30
bench-check:
	$(GO) run ./cmd/benchjson -check -json BENCH_ML.json \
		-current results/bench_current.txt -threshold $(BENCH_THRESHOLD)
	$(GO) run ./cmd/benchjson -check -json BENCH_SERVE.json \
		-current results/bench_serve_current.txt -threshold $(BENCH_THRESHOLD)

# ci is the full gate: formatting, vet, tests, the race detector over
# everything, the contract-test manifest, the committed-sweep regression
# gate, and a single-iteration benchmark smoke run.
ci: fmt-check vet test race test-manifest bench-check bench-smoke

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

fmt:
	gofmt -l .

# fuzz gives each fuzz target a short budget; extend FUZZTIME for deeper
# runs.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz FuzzMergeIntervals -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -fuzz FuzzIntervalRoundTrip -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -fuzz FuzzReadCSV -fuzztime $(FUZZTIME) ./internal/data/
