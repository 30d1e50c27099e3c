# Standard development entry points. All targets use only the Go
# toolchain; there are no external dependencies.

GO ?= go

.PHONY: all build test race test-manifest bench bench-ml bench-serve bench-smoke bench-json bench-check bench-pair ci fmt-check vet fmt fuzz

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
# chaos, training kernels, feedback durability, snapshot persistence,
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
# interpretation) into results/bench_serve_current.txt. Each drives an
# in-process server over loopback HTTP with the closed-loop driver in
# internal/serve/load_test.go (serve.Client, retries off). The committed
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
# bench-json). Pure file comparison: no benchmarks run here. A sweep
# depends on when the host was sampled: on a 2-core host the same
# BenchmarkGBDTPredictBatch code read 345 µs and then 242 µs two hours
# later, so a failure here is confirmed or dismissed with
# `make bench-pair REF=…`.
BENCH_THRESHOLD ?= 1.30
bench-check:
	$(GO) run ./cmd/benchjson -check -json BENCH_ML.json \
		-current results/bench_current.txt -threshold $(BENCH_THRESHOLD)
	$(GO) run ./cmd/benchjson -check -json BENCH_SERVE.json \
		-current results/bench_serve_current.txt -threshold $(BENCH_THRESHOLD)

# bench-pair judges a change against REF on this host. It checks REF out
# with `git worktree add` under .bench_build/, then runs the benchmarks
# matching BENCH in PAIR_PKGS of REF's tree and of this tree alternately,
# COUNT rounds of one run each (the side that goes first alternates too),
# and prints per benchmark the median ns/op and B/op of both sides, their
# ratio (this tree over REF) and how many rounds this tree won. Both sides
# run within minutes of each other on one host, so the ratio does not
# depend on the host the frozen baselines came from. Example:
#   make bench-pair REF=HEAD~1 BENCH='Fit$$' COUNT=7
REF ?=
BENCH ?= Fit$$
PAIR_PKGS ?= ./internal/ml/
COUNT ?= 5
PAIR_DIR = .bench_build/pair
bench-pair:
	@if [ -z "$(REF)" ]; then \
		echo "usage: make bench-pair REF=<rev> [BENCH=regexp] [PAIR_PKGS=pkgs] [COUNT=n]"; exit 2; fi
	rm -rf $(PAIR_DIR)
	git worktree prune
	mkdir -p $(PAIR_DIR)
	git worktree add --detach $(PAIR_DIR)/ref $(REF)
	for i in $$(seq $(COUNT)); do \
		if [ $$((i % 2)) -eq 1 ]; then order="ref cur"; else order="cur ref"; fi; \
		for side in $$order; do \
			dir=.; [ $$side = ref ] && dir=$(PAIR_DIR)/ref; \
			(cd $$dir && $(GO) test -run '^$$' -bench '$(BENCH)' -benchmem -count 1 $(PAIR_PKGS)) \
				>> $(PAIR_DIR)/$$side.txt || exit 1; \
		done; \
	done
	$(GO) run ./cmd/benchjson -pair -baseline $(PAIR_DIR)/ref.txt -current $(PAIR_DIR)/cur.txt
	git worktree remove --force $(PAIR_DIR)/ref

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
