GO ?= go

.PHONY: build test race lint fmt loc all validate bench-smoke fuzz-smoke trace-demo fault-demo obs-demo

all: fmt lint build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the stress tests (and everything else) under the race detector;
# -short scales the stress workloads down so the pass stays quick.
race:
	$(GO) test -race -short ./...

# lint is the whole static gate: graphlint (the project-specific analyzer:
# det, hotalloc, lock, scratch and truncate, each kept while a mutant of a
# real file that only it catches sits in internal/lint/mutants_test.go;
# silenced only by reasoned //lint:ignore directives in the code) and go
# vet. `go test ./...` runs the same rules over the tree as
# lint.TestModuleIsClean.
lint:
	$(GO) run ./cmd/graphlint ./... && $(GO) vet ./...

# fmt fails if any file needs gofmt, and prints the offenders.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# loc prints the two sizes every CHANGES.md entry quotes: lines of tracked
# non-test Go outside bench/, and lines of tracked test Go outside bench/.
loc:
	@echo "non-test Go lines outside bench/: $$(git ls-files '*.go' | grep -v '^bench/' | grep -v '_test\.go$$' | xargs cat | wc -l)"
	@echo "test Go lines outside bench/:     $$(git ls-files '*.go' | grep -v '^bench/' | grep '_test\.go$$' | xargs cat | wc -l)"

# validate runs the reference table, TestEnginesMatchReference: every
# engine × algorithm × {1 node, 4 nodes} against the serial reference,
# each cluster cell through internal/cluster's exchanges and the
# distributed runtimes; this prints each cell. It then runs the model
# golden, TestModelGolden, which holds every modelled cluster.Report
# field of the multi-node experiments (traffic, bandwidth, network
# seconds, memory, checkpoints) to its fixture. go test ./... runs both;
# this is the one command a cluster-path change needs.
validate:
	$(GO) test -run '^TestEnginesMatchReference$$' -v .
	$(GO) test -run '^TestModelGolden$$' ./internal/harness

# bench-smoke vets and tests the repository's benchmark (BENCHMARK.json,
# bench/). It is a module of its own, so `go build ./... && go test ./...`
# at the root never compiles it: this is what notices an internal API
# change that breaks it.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# fuzz-smoke gives each decoder of bytes from outside the process ten
# seconds on top of its checked-in seeds: the /query/ parameter parser
# (every query string graphserve answers), the Datalog rule parser (rule
# text arrives on /query/datalog?rule=), and the delta-record and snapshot
# decoders (-warm-start and the epoch store read files back). No input may
# panic; each target's comment says what else it holds. The minimiser is
# capped so kilobyte snapshot inputs do not eat the ten seconds.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParseQuery -fuzztime 10s -fuzzminimizetime 1s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s -fuzzminimizetime 1s ./internal/socialite
	$(GO) test -run '^$$' -fuzz FuzzDecodeDelta -fuzztime 10s -fuzzminimizetime 1s ./internal/graph
	$(GO) test -run '^$$' -fuzz FuzzDecodeSnapshot -fuzztime 10s -fuzzminimizetime 1s ./internal/graph

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
# are well-formed — a counter an engine fed through the run's tracer
# included — and pulls a non-empty heap profile from pprof.
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
	grep -q '^# TYPE graphmaze_giraph_messages_total counter$$' obs-demo.metrics || { echo "obs-demo: /metrics lacks the tracer-fed giraph_messages counter"; exit 1; }; \
	curl -sf http://$(OBS_DEMO_ADDR)/metrics.json -o obs-demo.metrics.json; \
	grep -q '"histograms"' obs-demo.metrics.json || { echo "obs-demo: /metrics.json lacks histograms"; exit 1; }; \
	curl -sf http://$(OBS_DEMO_ADDR)/debug/pprof/heap -o obs-demo.heap; \
	[ -s obs-demo.heap ] || { echo "obs-demo: empty heap profile"; exit 1; }; \
	echo "obs-demo: scraped $$(grep -c '^graphmaze_' obs-demo.metrics) series + heap profile from http://$(OBS_DEMO_ADDR)/"

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
