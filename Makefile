GO ?= go

# Per-target budget for the short fuzz pass `check` runs.
FUZZTIME ?= 3s

.PHONY: build test bench bench-baseline check fmt vet attrib fuzz-short metriclint trace-check service-check perfbench-check loc cross-build

build:
	$(GO) build ./...

# Build the main module for two non-linux targets, so the portable
# fallbacks behind build tags (vm's heap-backed machine memory) keep
# compiling. perfbench/ is a separate, linux-only module and is not
# built here.
cross-build:
	GOOS=darwin GOARCH=arm64 $(GO) build ./...
	GOOS=windows $(GO) build ./...

test:
	$(GO) test ./...

# Full benchmark sweep; BENCH_pipeline.json is the machine-readable
# metrics snapshot (per-benchmark gauges via the BENCH_METRICS path),
# including the BenchmarkBatch Workers=1 vs Workers=4 speedup.
bench:
	BENCH_METRICS=BENCH_pipeline.json $(GO) test -bench=. -benchmem .

# Benchmarks snapshotted into the committed baseline and re-run by the
# `check` regression gate: the parallel-pipeline encoders plus the
# serial fast-path decode/dispatch micro-benchmarks, plus a client's
# parse+JIT load and its wire decode+codegen load.
GATED_BENCH = WireCompress|BriscCompress|Batch|WireDecompress|WireLoad|RawDecode|InterpDispatch|XIP|ParseJIT

# Regenerate the committed short-mode baseline the `check` regression
# gate compares against. Run this (and commit the result) after an
# intentional size change. Built -race like the check run itself so
# allocation counts compare like with like. benchtime=5x because the
# race detector makes sync.Pool drop ~25% of Puts at random, so
# pooled-scratch allocation counts only stabilize when averaged over
# several iterations.
bench-baseline:
	BENCH_METRICS=BENCH_baseline.json $(GO) test -race -short -run='^$$' -bench='$(GATED_BENCH)' -benchtime=5x .

# Byte-attribution audit: compscope exits nonzero unless every byte of
# each artifact is accounted for, so this target fails on any
# attribution drift. The hot mode additionally joins static bytes with
# interpreter dispatch counts.
attrib:
	$(GO) run ./cmd/compscope report examples/modules/*.mc
	$(GO) run ./cmd/compscope hot examples/modules/fib.mc

# Non-test Go line counts per package under internal/ and cmd/, plus
# a total: run it before and after a change for the change's net line
# count.
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' -exec wc -l {} + | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", t }'

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Short coverage-guided fuzz pass over every untrusted-input decoder
# and over the code generator's own checks of a module,
# seeded from the example modules. FUZZTIME bounds each target; bump it
# for a longer local hunt (e.g. make fuzz-short FUZZTIME=2m).
fuzz-short:
	$(GO) test -run='^$$' -fuzz='^FuzzDecompress$$' -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -run='^$$' -fuzz='^FuzzOpenIndexed$$' -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -run='^$$' -fuzz='^FuzzInspect$$' -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -run='^$$' -fuzz='^FuzzParseContainer$$' -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -run='^$$' -fuzz='^FuzzReadStream$$' -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=$(FUZZTIME) ./internal/brisc/
	$(GO) test -run='^$$' -fuzz='^FuzzOpenXIPStore$$' -fuzztime=$(FUZZTIME) ./internal/brisc/
	$(GO) test -run='^$$' -fuzz='^FuzzExec$$' -fuzztime=$(FUZZTIME) ./internal/brisc/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeCode$$' -fuzztime=$(FUZZTIME) ./internal/brisc/
	$(GO) test -run='^$$' -fuzz='^FuzzRoundTrip$$' -fuzztime=$(FUZZTIME) ./internal/flatezip/
	$(GO) test -run='^$$' -fuzz='^FuzzCompile$$' -fuzztime=$(FUZZTIME) ./internal/cc/
	$(GO) test -run='^$$' -fuzz='^FuzzGenerate$$' -fuzztime=$(FUZZTIME) ./internal/codegen/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeVsSlow$$' -fuzztime=$(FUZZTIME) ./internal/huffman/
	$(GO) test -run='^$$' -fuzz='^FuzzMTFDiff$$' -fuzztime=$(FUZZTIME) ./internal/mtf/

vet:
	$(GO) vet ./...

# Telemetry naming contract: literal metric names must be lowercase
# dotted and registered from exactly one package.
metriclint:
	$(GO) run ./cmd/metriclint

# Trace-analysis gate: record the batch-corpus pipeline twice with full
# tracing, then require (1) the critical path to attribute >= 95% of
# wall time to named stages (uninstrumented gaps fail the build), (2) a
# tracescope diff of the two runs to stay inside a generous wall-clock
# envelope, and (3) the runs' deterministic byte/count metrics to be
# identical (benchdiff -json at a 1% threshold; timing metrics are
# excluded). trace-check.json is the machine-readable CI artifact.
TRACE_CHECK_DIR ?= /tmp/repro-trace-check
trace-check: build
	mkdir -p $(TRACE_CHECK_DIR)
	$(GO) run ./cmd/experiments -table batch -workers 4 \
		-trace $(TRACE_CHECK_DIR)/run1.jsonl -metrics-out $(TRACE_CHECK_DIR)/run1.json > $(TRACE_CHECK_DIR)/run1.txt
	$(GO) run ./cmd/experiments -table batch -workers 4 \
		-trace $(TRACE_CHECK_DIR)/run2.jsonl -metrics-out $(TRACE_CHECK_DIR)/run2.json > $(TRACE_CHECK_DIR)/run2.txt
	$(GO) run ./cmd/tracescope report $(TRACE_CHECK_DIR)/run1.jsonl
	$(GO) run ./cmd/tracescope critical -min-attributed 95 $(TRACE_CHECK_DIR)/run1.jsonl
	$(GO) run ./cmd/tracescope diff -threshold 150 -min-dur 250ms \
		$(TRACE_CHECK_DIR)/run1.jsonl $(TRACE_CHECK_DIR)/run2.jsonl
	$(GO) run ./cmd/benchdiff -json -threshold 1 \
		-ignore 'speedup|_ms$$|^parallel\.pool|^telemetry\.flight|^runtime\.' \
		$(TRACE_CHECK_DIR)/run1.json $(TRACE_CHECK_DIR)/run2.json > $(TRACE_CHECK_DIR)/trace-check.json
	@echo "trace-check: ok (artifact $(TRACE_CHECK_DIR)/trace-check.json)"

# Service robustness gate for the compressd daemon. Two layers: the
# race-enabled drain/overload/chaos suites (in-process and end-to-end
# via the built binary with a real SIGTERM), then a black-box smoke —
# start the daemon on an ephemeral port, compress over HTTP, require
# the compressd_* series in /metrics, SIGTERM, and require a clean
# (exit 0) drain.
SERVICE_BIN ?= /tmp/repro-compressd
SERVICE_OUT ?= /tmp/repro-compressd.out
service-check:
	$(GO) test -race -count=1 -run 'Drain|Shed|Admission|Chaos|FromContext' \
		./internal/compressd/ ./internal/guard/ ./internal/telemetry/expose/
	$(GO) test -count=1 -run 'TestCompressd' ./internal/clitest/
	$(GO) build -o $(SERVICE_BIN) ./cmd/compressd
	@set -e; \
	$(SERVICE_BIN) -addr 127.0.0.1:0 > $(SERVICE_OUT) 2>/dev/null & \
	pid=$$!; \
	addr=""; \
	for i in $$(seq 1 50); do \
		addr=$$(sed -n 's/^compressd: listening on //p' $(SERVICE_OUT)); \
		[ -n "$$addr" ] && break; sleep 0.1; \
	done; \
	[ -n "$$addr" ] || { kill $$pid 2>/dev/null; echo "service-check: daemon never announced an address"; exit 1; }; \
	curl -sf -X POST "http://$$addr/v1/compress" \
		-d '{"source":"int main(void) { putint(42); return 0; }"}' | grep -q '"artifact"' \
		|| { kill $$pid 2>/dev/null; echo "service-check: compress smoke failed"; exit 1; }; \
	curl -sf "http://$$addr/metrics" | grep -q '^compressd_' \
		|| { kill $$pid 2>/dev/null; echo "service-check: no compressd_* series in /metrics"; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid || { echo "service-check: daemon did not drain cleanly"; exit 1; }; \
	echo "service-check: ok"

# The repo benchmark (perfbench/) is its own Go module importing this
# one through a replace directive, so `go build ./...` never compiles
# it. Vet and test it on its own, so an API change here that breaks
# the benchmark fails the check.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Everything CI would run: formatting, vet, build, the cross-builds,
# race-enabled tests
# (which include the Workers=1 vs Workers=N determinism suites, the
# shared-pool stress tests, and the fault-injection sweep over every
# artifact format), a short fuzz pass over the untrusted-input
# decoders, one short-mode race-enabled pass over the
# parallel-pipeline and fast-path benchmarks gated against the
# committed baseline (timing-derived metrics — wall-clock speedups,
# per-second rates, allocation byte totals that track GC timing — are
# excluded, as are the runtime-sampler gauges and flight-recorder
# counters, which vary run to run; deterministic size, symbol, step,
# and allocation-count metrics gate), the byte-attribution audit, and
# the benchmark module's vet and tests.
# The allocation threshold is 10%: with scratch pooled, steady-state
# counts are small and the race detector's randomized sync.Pool drops
# swing them a few percent run to run, while the churn this gate
# guards against (a reintroduced per-pass or per-stream allocation)
# moves them by integer factors.
check: fmt vet build cross-build metriclint
	$(GO) test -race ./...
	$(MAKE) fuzz-short
	BENCH_METRICS=/tmp/BENCH_check.json $(GO) test -race -short -run='^$$' -bench='$(GATED_BENCH)' -benchtime=5x .
	$(GO) run ./cmd/benchdiff -threshold 10 -ignore 'speedup|steps/s|bytes/op|^runtime\.|^parallel\.pool|^telemetry\.flight' BENCH_baseline.json /tmp/BENCH_check.json
	$(MAKE) attrib
	$(MAKE) trace-check
	$(MAKE) service-check
	$(MAKE) perfbench-check
