GO ?= go
FUZZTIME ?= 5s

.PHONY: build vet fmt-check lint lint-baseline test test-race test-scaling fuzz-smoke obs-smoke cluster-smoke bench bench-train bench-scaling check help

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fail if any file is not gofmt-clean (prints the offenders).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Run the in-repo analyzer suite (cmd/mhlint) against the committed
# baseline: only findings NOT in lint.baseline.json fail. Findings are
# suppressed inline with `//mhlint:ignore <analyzer> <reason>`; run with
# -suppressed to audit them, -list to see the analyzers. `make lint-baseline`
# regenerates the baseline after an audited burn-down.
lint:
	$(GO) run ./cmd/mhlint -baseline lint.baseline.json ./...

lint-baseline:
	$(GO) run ./cmd/mhlint -write-baseline lint.baseline.json ./...

test:
	$(GO) test ./...

# Race-detect the whole module. The concurrency hot spots are the PAS
# retrieval engine, the training/inference runtime, the blocked GEMM kernel,
# and parallel DQL model enumeration, but -race is cheap enough to run on
# everything.
test-race:
	$(GO) test -race ./...

# Short native-fuzzing smoke runs (one target per invocation; go test only
# accepts -fuzz for a single package). FuzzOpenManifest's seeds are whole
# archive manifests (several KB), so each newly interesting input is
# minimized for a bounded number of runs rather than the default 60s, which
# would stall a short smoke run.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzDQLParse -fuzztime=$(FUZZTIME) ./internal/dql
	$(GO) test -run='^$$' -fuzz=FuzzSegmentRoundTrip -fuzztime=$(FUZZTIME) ./internal/floatenc
	$(GO) test -run='^$$' -fuzz=FuzzSegmentIndex -fuzztime=$(FUZZTIME) ./internal/pas
	$(GO) test -run='^$$' -fuzz=FuzzOpenManifest -fuzztime=$(FUZZTIME) -fuzzminimizetime=100x ./internal/pas
	$(GO) test -run='^$$' -fuzz=FuzzLintDirectiveAndBaseline -fuzztime=$(FUZZTIME) ./internal/lint
	$(GO) test -run='^$$' -fuzz=FuzzProgressiveAgreesWithFull -fuzztime=$(FUZZTIME) ./internal/perturb

# End-to-end observability check: start modelhub-server -metrics, publish +
# pull a tiny archived repo, scrape /metrics, assert well-formed JSON with
# nonzero hub.http.* and pas.* counters, and hit /debug/pprof/.
obs-smoke:
	bash scripts/obs_smoke.sh

# Distributed-hub failure drill: gateway + 3 replicas, publish through the
# gateway, kill a replica, pull from the survivors, restart it, and assert
# one anti-entropy sweep restores full replication via /metrics.
cluster-smoke:
	bash scripts/cluster_smoke.sh

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# Training-substrate kernels: im2col conv, GEMM, parallel enumeration.
bench-train:
	$(GO) test -bench='BenchmarkConvForward|BenchmarkGemm$$|BenchmarkEvaluateGrid|BenchmarkTrainingStep' -run=^$$ .

# Multicore scaling sweep: GOMAXPROCS x workers over GEMM, conv passes, full
# training steps, and concurrent DQL evaluate. Writes BENCH_scaling.json with
# a hardware-metadata block.
bench-scaling:
	$(GO) run ./cmd/mhbench -exp scaling -scaling-json BENCH_scaling.json

# The compute-core suites under a GOMAXPROCS matrix with the race detector,
# like the CI compute-scaling job: the determinism contract (bit-identical
# results at any worker count) must hold at every proc count.
# -count=1 defeats the test cache: GOMAXPROCS is read by the runtime, not
# through os.Getenv in test code, so cached results would not re-run.
test-scaling:
	for procs in 1 2 4; do \
		echo "== GOMAXPROCS=$$procs =="; \
		GOMAXPROCS=$$procs $(GO) test -race -count=1 ./internal/tensor/ ./internal/dnn/ ./internal/dql/ ./internal/perturb/ ./internal/dlv/ || exit 1; \
	done

check: build vet fmt-check lint test test-race

help:
	@echo "build       - compile all packages"
	@echo "vet         - go vet ./..."
	@echo "fmt-check   - fail on files needing gofmt"
	@echo "lint        - run the mhlint analyzer suite against lint.baseline.json"
	@echo "lint-baseline - regenerate lint.baseline.json from current findings"
	@echo "test        - go test ./..."
	@echo "test-race   - go test -race ./..."
	@echo "fuzz-smoke  - short fuzz runs incl. the PAS manifest decoder and progressive inference (FUZZTIME=$(FUZZTIME))"
	@echo "obs-smoke   - live /metrics + pprof scrape against a real server"
	@echo "cluster-smoke - gateway + 3-replica failure drill with anti-entropy repair"
	@echo "bench       - run all benchmarks once"
	@echo "bench-train - training-substrate kernel benchmarks"
	@echo "bench-scaling - GOMAXPROCS x workers compute sweep (BENCH_scaling.json)"
	@echo "test-scaling - tensor/dnn/dql/perturb/dlv suites with -race under GOMAXPROCS 1/2/4"
	@echo "check       - build + vet + fmt-check + lint + test + test-race"
