GO ?= go

.PHONY: build test race lint lint-baseline lint-selfcheck fmt all bench-diff bench-smoke trace-demo fault-demo obs-demo serve-demo

all: fmt lint build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the stress tests (and everything else) under the race detector;
# -short scales the stress workloads down so the pass stays quick.
race:
	$(GO) test -race -short ./...

# lint runs graphlint (the project-specific analyzer) against the checked-in
# baseline — only findings not recorded in lint.baseline.json fail — writes
# the full findings to lint-findings.json for the CI artifact, then runs
# go vet. Regenerate the baseline with `make lint-baseline` after triaging.
lint:
	$(GO) run ./cmd/graphlint -json ./... > lint-findings.json || true
	$(GO) run ./cmd/graphlint -baseline lint.baseline.json ./...
	$(GO) vet ./...

# lint-baseline re-records the current findings as the accepted baseline.
lint-baseline:
	$(GO) run ./cmd/graphlint -write-baseline -baseline lint.baseline.json ./...

# lint-selfcheck runs graphlint over its own implementation: the analyzer
# must hold itself to the rules it enforces.
lint-selfcheck:
	$(GO) run ./cmd/graphlint -baseline lint.baseline.json ./internal/lint ./cmd/graphlint

# fmt fails if any file needs gofmt, and prints the offenders.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Benchmark families. Each is a -bench pattern over a package list:
#   par      scheduling-layer microbenchmarks, the skewed native kernels
#            (static vs dynamic/edge-balanced), the per-engine
#            PageRank/BFS kernels at the repo root and the obs histogram
#            hot paths; override the skew graph size with
#            GRAPHMAZE_SKEW_SCALE (default 16)
#   backend  the shared SpMV backend kernels (semiring products, frontier
#            expansion, a full lowered PageRank iteration); allocs/op must
#            read 0 for the steady-state kernels, and the per-engine
#            numbers in BENCH_par.json are measured against these
#   stream   delta batch ingestion (dedup-sort + merge-build of the next
#            epoch's CSR), snapshot encode/decode framing and the
#            incremental kernel refreshes, each iteration ingesting one
#            delta batch — the steady state of serving a growing graph
#   serve    the full service path on a cache hit, a cache-bypass miss, a
#            PageRank recompute miss, the admission fast path alone and
#            under tenant contention, and the raw result cache
BENCH_FAMILIES := par backend stream serve
BENCH_PATTERN_par      := BenchmarkPar|BenchmarkNative.*Skewed|BenchmarkPageRank$$|BenchmarkBFS$$|BenchmarkObs
BENCH_PACKAGES_par     := . ./internal/par ./internal/native ./internal/obs
BENCH_PATTERN_backend  := BenchmarkBackend
BENCH_PACKAGES_backend := ./internal/backend
BENCH_PATTERN_stream   := BenchmarkStream
BENCH_PACKAGES_stream  := ./internal/graph ./internal/native
BENCH_PATTERN_serve    := BenchmarkServe|BenchmarkAdmission|BenchmarkResultCache
BENCH_PACKAGES_serve   := ./internal/serve

# BENCH_FLAGS adds go test flags (CI's smoke passes -benchtime=1x); the
# diff fails on a >BENCH_THRESHOLD ns/op or allocs/op regression, or a
# >BENCH_QUANTILE_THRESHOLD one on the noisier pN-ns/op latency quantiles.
BENCH_FLAGS ?=
BENCH_THRESHOLD ?= 1.25
BENCH_QUANTILE_THRESHOLD ?= 2.0
.PHONY: $(BENCH_FAMILIES:%=bench-%) $(BENCH_FAMILIES:%=bench-%-diff)
BENCH_RUN = $(GO) test -run '^$$' -bench '$(BENCH_PATTERN_$*)' -benchmem $(BENCH_FLAGS) $(BENCH_PACKAGES_$*)

# bench-<family> runs the family and records it as BENCH_<family>.json.
$(BENCH_FAMILIES:%=bench-%): bench-%:
	$(BENCH_RUN) | tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_$*.json

# bench-<family>-diff compares a fresh run against the checked-in
# BENCH_<family>.json; bench-diff is the par family's.
$(BENCH_FAMILIES:%=bench-%-diff): bench-%-diff:
	$(BENCH_RUN) | $(GO) run ./cmd/benchjson > BENCH_$*.new.json
	$(GO) run ./cmd/benchjson -diff -threshold $(BENCH_THRESHOLD) -quantile-threshold $(BENCH_QUANTILE_THRESHOLD) BENCH_$*.json BENCH_$*.new.json

bench-diff: bench-par-diff

# bench-smoke vets and tests the repository's benchmark (BENCHMARK.json,
# bench/). It is a module of its own, so `go build ./... && go test ./...`
# at the root never compiles it: this is what notices an internal API
# change that breaks it.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# trace-demo runs a small traced experiment end to end: the Chrome trace
# lands in trace-demo.json (load it at https://ui.perfetto.dev) and the
# machine-readable report in trace-demo-report.json.
trace-demo:
	$(GO) run ./cmd/graphbench -exp table5 -quick -iters 2 \
		-trace trace-demo.json -json > trace-demo-report.json
	@echo "wrote trace-demo.json and trace-demo-report.json"

# obs-demo smoke-tests the live observability listener end to end: it runs
# a quick experiment with -obs, scrapes /metrics until the finished run's
# harness histogram shows up (the -obs-linger window keeps the listener
# alive after the run), checks the Prometheus text and JSON expositions
# are well-formed, and pulls a non-empty heap profile from pprof.
OBS_DEMO_ADDR ?= 127.0.0.1:8321
obs-demo:
	@set -e; \
	$(GO) run ./cmd/graphbench -exp table5 -quick -iters 2 \
		-obs $(OBS_DEMO_ADDR) -obs-linger 60s >/dev/null 2>obs-demo.log & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	ok=""; for i in $$(seq 1 300); do \
		if curl -sf http://$(OBS_DEMO_ADDR)/metrics -o obs-demo.metrics 2>/dev/null \
			&& grep -q '^graphmaze_harness_run_dur_ns' obs-demo.metrics; then ok=1; break; fi; \
		sleep 0.2; \
	done; \
	if [ -z "$$ok" ]; then echo "obs-demo: no harness histogram scraped"; cat obs-demo.log; exit 1; fi; \
	grep -q '^# TYPE graphmaze_' obs-demo.metrics || { echo "obs-demo: /metrics lacks TYPE lines"; exit 1; }; \
	grep -q '^graphmaze_runtime_goroutines ' obs-demo.metrics || { echo "obs-demo: /metrics lacks runtime gauges"; exit 1; }; \
	curl -sf http://$(OBS_DEMO_ADDR)/metrics.json -o obs-demo.metrics.json; \
	grep -q '"histograms"' obs-demo.metrics.json || { echo "obs-demo: /metrics.json lacks histograms"; exit 1; }; \
	curl -sf http://$(OBS_DEMO_ADDR)/debug/pprof/heap -o obs-demo.heap; \
	[ -s obs-demo.heap ] || { echo "obs-demo: empty heap profile"; exit 1; }; \
	echo "obs-demo: scraped $$(grep -c '^graphmaze_' obs-demo.metrics) series + heap profile from http://$(OBS_DEMO_ADDR)/"

# serve-demo smoke-tests the always-on query service end to end: start
# graphserve on small built-in graphs, wait for /healthz, drive it for
# 2 seconds with the Zipf-skewed multi-tenant loadgen (including
# mutation batches so epochs advance under load), require non-zero
# throughput, then SIGINT the server and require a clean shutdown.
SERVE_DEMO_ADDR ?= 127.0.0.1:8322
serve-demo:
	@set -e; \
	$(GO) build -o graphserve.demo ./cmd/graphserve; \
	./graphserve.demo -addr $(SERVE_DEMO_ADDR) -scale 10 > serve-demo.log 2>&1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true; rm -f graphserve.demo' EXIT; \
	ok=""; for i in $$(seq 1 300); do \
		if curl -sf http://$(SERVE_DEMO_ADDR)/healthz >/dev/null 2>&1; then ok=1; break; fi; \
		sleep 0.2; \
	done; \
	[ -n "$$ok" ] || { echo "serve-demo: server never became healthy"; cat serve-demo.log; exit 1; }; \
	./graphserve.demo -loadgen -url http://$(SERVE_DEMO_ADDR) -duration 2s \
		-delta-every 250ms -min-qps 1 | tee serve-demo.loadgen; \
	kill -INT $$pid; wait $$pid || true; \
	grep -q 'clean shutdown' serve-demo.log || { echo "serve-demo: no clean shutdown"; cat serve-demo.log; exit 1; }; \
	echo "serve-demo: ok"

# fault-demo runs the fault-tolerance experiment with an injected crash
# and checkpointing: the tables show checkpoint overhead vs interval and
# the cost of rolling back and replaying; the Chrome trace in
# fault-demo.json carries cluster.checkpoint / cluster.fault /
# cluster.recovery spans on the per-node tracks.
fault-demo:
	$(GO) run ./cmd/graphbench -exp faulttol -quick \
		-faults 'crash@3:n1' -ckpt-interval 2 \
		-trace fault-demo.json -json > fault-demo-report.json
	@echo "wrote fault-demo.json and fault-demo-report.json"
