# Development targets. `make verify` is the tier-1 recipe (build +
# test) extended with `go vet` and a race-detector pass so the
# concurrent experiment engine stays continuously checked.

GO ?= go

# GOMAXPROCS for the full bench slate. The default oversubscribes a
# single-core host on purpose so BENCH_suite.json records the
# scheduler-parallel configuration; on multi-core hardware the engine
# pool turns the same setting into real speedup.
BENCH_GOMAXPROCS ?= 4

.PHONY: build fmt-check vet perfbench-vet cross-check test race loc bench bench-smoke bench-dataplane-smoke bench-tracker-smoke fuzz fuzz-perf fuzz-perf-smoke repair-smoke cluster-smoke examples-smoke verify

build:
	$(GO) build ./...

# fmt-check fails when any Go file is not gofmt-formatted, listing
# the offenders.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# perfbench-vet compiles and vets the benchmark module. perfbench has
# its own go.mod, so the root build and vet never see it: an API change
# the benchmark relies on would otherwise break it unnoticed.
perfbench-vet:
	cd perfbench && $(GO) vet ./...

# cross-check guards the no-FMA rule: Dot, Axpy, Rotate, PegasosStep,
# MulVecInto, the Pegasos SVM fit and the PCA fit round every product
# before adding it, so they must return the same bits on every
# architecture, with or without mathx's AVX2 kernels. It vets mathx,
# svm and pca for arm64 (which has fused multiply-add) and 386, and
# runs the mathx tests, the bit-pinned PCA fit and the SVM fit's
# reference comparison under GOARCH=386, a second architecture where
# only the portable Go loops run.
cross-check:
	GOARCH=arm64 $(GO) vet ./internal/mathx/ ./internal/ml/svm/ ./internal/ml/pca/
	GOARCH=386 $(GO) vet ./internal/mathx/ ./internal/ml/svm/ ./internal/ml/pca/
	GOARCH=386 $(GO) test ./internal/mathx/
	GOARCH=386 $(GO) test ./internal/ml/pca/
	GOARCH=386 $(GO) test ./internal/ml/svm/

test:
	$(GO) test ./...

# The race pass is what guards the engine's worker pool and the
# Suite's documented safe-for-concurrent-use contract.
race:
	$(GO) test -race ./...

# loc prints each package's size as non-test Go lines, with blank
# lines and whole-line // comments excluded, then the total — the
# figure CHANGES.md quotes when a change deletes code.
loc:
	@$(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./... | \
	while read -r pkg files; do \
		[ -n "$$files" ] || continue; \
		printf '%6d  %s\n' $$(cat $$files | grep -v '^\s*//' | grep -v '^\s*$$' | wc -l) $$pkg; \
	done | awk '{ print; total += $$1 } END { printf "%6d  total\n", total }'

# The full bench slate also refreshes BENCH_suite.json, the
# machine-readable perf record (suite walls, speedup, per-experiment
# timings, dataplane matrix) written by the suite benchmarks.
bench:
	GOMAXPROCS=$(BENCH_GOMAXPROCS) BENCH_JSON=$(CURDIR)/BENCH_suite.json \
		$(GO) test -bench . -benchtime 1x .

# bench-smoke is the CI guard: the E09 hot path and the suite
# sequential/parallel pair, one iteration each, so perf-critical code
# keeps compiling and running without burning CI minutes.
bench-smoke:
	$(GO) test -run='^$$' -bench 'BenchmarkE09|BenchmarkSuite' -benchtime 1x .

# bench-dataplane-smoke is the dataplane allocation gate: the OpenFlow
# codec benches fail on any steady-state allocation, the batched
# controller pipeline must hold >= 2x packets/sec over the per-event
# baseline, and the 3-replica ensemble slot (Submit, re-punt pump and
# EndSlot) fails above its measured heap objects per punt.
bench-dataplane-smoke:
	$(GO) test -run='^$$' -bench 'BenchmarkOpenFlow|BenchmarkControllerEvents|BenchmarkEnsembleSlot' -benchtime 200x .

# bench-tracker-smoke drives the whole served-tracker stack at small
# scale — multi-tenant service, WAL group commit, kill-and-resume
# miners, TakeOver recovery, report generation — as the CI guard for
# `trackersim load`. The full run (BENCH_tracker.json) uses
# -tenants 4 -miners 100.
bench-tracker-smoke:
	$(GO) run ./cmd/trackersim load -tenants 2 -miners 8 -rate 500 -burst 50 \
		-max-inflight 64 -bench-appends 400 -out /tmp/BENCH_tracker_smoke.json

# Fuzz the parsers that face untrusted bytes, briefly: malformed
# OpenFlow frames must produce typed errors, never panics or
# over-allocation, the journal replayer must recover exactly the
# longest valid prefix of an arbitrarily mangled write-ahead log, the
# canonical issue codec must stay a byte-stable fixed point, the
# tracker handlers' spliced pre-encoded pages must equal json.Encoder's
# bytes, the fused Pegasos step must fit the same bits as the
# separate Scale/Axpy/average loops, mathx's AVX2 kernels must return
# the bits of the portable Go loops, and the EthDst-indexed flow table
# must return the same entry as the linear reference table.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzDecodeMessage -fuzztime=10s ./internal/openflow/
	$(GO) test -run='^$$' -fuzz=FuzzRoleCodec -fuzztime=10s ./internal/openflow/
	$(GO) test -run='^$$' -fuzz=FuzzJournalReplay -fuzztime=10s ./internal/durable/
	$(GO) test -run='^$$' -fuzz=FuzzIssueCodec -fuzztime=10s ./internal/tracker/
	$(GO) test -run='^$$' -fuzz=FuzzReplicaPageMatchesEncoder -fuzztime=10s ./internal/trackerd/
	$(GO) test -run='^$$' -fuzz=FuzzMutate -fuzztime=10s ./internal/perfuzz/
	$(GO) test -run='^$$' -fuzz=FuzzRepairPatch -fuzztime=10s ./internal/repair/
	$(GO) test -run='^$$' -fuzz=FuzzFitMatchesReference -fuzztime=10s ./internal/ml/adaboost/
	$(GO) test -run='^$$' -fuzz=FuzzFitBinaryMatchesReference -fuzztime=10s ./internal/ml/svm/
	$(GO) test -run='^$$' -fuzz=FuzzKernelsMatchGo -fuzztime=10s ./internal/mathx/
	$(GO) test -run='^$$' -fuzz=FuzzFlowTableMatchesReference -fuzztime=10s ./internal/sdn/

# fuzz-perf runs the feedback-guided performance fuzzer (the E24
# workload) at a real budget and writes the JSON report — worst
# genomes, shrunk minimal reproducers, learner scores.
fuzz-perf:
	$(GO) run ./cmd/perfuzz -seed 1 -generations 12 -population 12 -out FUZZ_perf.json

# fuzz-perf-smoke is the CI guard: a bounded budget that still
# exercises search, shrinking, and learning end to end.
fuzz-perf-smoke:
	$(GO) run ./cmd/perfuzz -seed 1 -out /tmp/FUZZ_perf_smoke.json

# repair-smoke is the CI guard for the automatic repair loop (the E25
# workload): a bounded-budget repair of one poison class — shed,
# synthesize, rank, validate against reproducer + campaign, lift.
repair-smoke:
	$(GO) run ./cmd/faultlab -repair -seed 1 -events 400 -max-candidates 4 \
		-repair-class configuration/multicast -json > /tmp/repair_smoke.json

# cluster-smoke is the CI guard for controller HA (the E26 workload):
# a 3-replica ensemble plays a bounded schedule under induced primary
# crashes, partitions, and asymmetric links; faultlab exits non-zero
# unless the converged ensemble state is byte-identical to the
# unfaulted run and prints the failover/fencing counters.
cluster-smoke:
	$(GO) run ./cmd/faultlab -cluster -seed 1 -events 400 -replicas 3 -json \
		> /tmp/cluster_smoke.json

# examples-smoke runs every example and fails if one exits non-zero:
# the two that drive controllers through sdn.Pump outside the golden
# contract (the supervised self-healing walk and the Table VII
# recovery evaluation), the corpus quickstart, and NLP triage.
examples-smoke:
	$(GO) run ./examples/selfheal > /dev/null
	$(GO) run ./examples/recovery-eval > /dev/null
	$(GO) run ./examples/quickstart > /dev/null
	$(GO) run ./examples/triage > /dev/null

verify: build fmt-check vet perfbench-vet cross-check test race bench-dataplane-smoke fuzz-perf-smoke repair-smoke cluster-smoke examples-smoke
