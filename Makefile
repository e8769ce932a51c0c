.PHONY: check check-assign check-dist check-incr check-kernels check-obs check-perfbench test bench bench-diff bench-json bcbench profile-extract profile-ingest vet

# Revision stamp for benchmark binaries: BENCH_*.json meta blocks must
# identify the commit that produced them, and ReadBuildInfo's vcs.*
# settings are absent from test binaries and some build modes — so the
# bench/bcbench targets pass the revision explicitly via -ldflags -X
# (cmd/bcbench falls back to ReadBuildInfo when built without these).
GIT_REV   := $(shell git -C $(CURDIR) rev-parse HEAD 2>/dev/null || echo unknown)
GIT_DIRTY := $(shell test -n "$$(git -C $(CURDIR) status --porcelain 2>/dev/null)" && echo true || echo false)
STAMP_LDFLAGS := -X main.buildRevision=$(GIT_REV) -X main.buildDirty=$(GIT_DIRTY)

# Full correctness gate: vet, build everything, then the whole test
# suite under the race detector — the batched-ingest, parallel-extraction
# and assignment-engine equivalence tests only mean something with -race
# on. CI runs check-assign first (fast fail), then this.
check: check-kernels check-incr
	go vet ./...
	go build ./...
	go test -race ./...

# Fast assignment-engine equivalence pass: pins the graph arena, the
# blocked distance kernel, warm-started sweeps and the parallel solve
# loops to the fresh-graph baseline, under -race. Runs in seconds; CI
# runs it before the full suite so engine regressions fail fast.
check-assign:
	go test -short -race -run 'Assign|DistRMatrix' ./internal/flow ./internal/geo ./internal/assign ./internal/experiments

# Fast distributed-protocol pass: vet the protocol packages and pin the
# wire codec, both transports, the pipelined driver's bit-identity with
# the serial reference and the seeding optimization, under -race. Runs in
# seconds; CI runs it before the full suite so protocol regressions fail
# fast.
check-dist:
	go vet ./internal/dist ./internal/streamfmt ./internal/solve
	go test -short -race ./internal/dist ./internal/streamfmt
	go test -short -race -run 'SeedKMeansPP|EstimateOPT' ./internal/solve

# Fast incremental-extraction pass: vet the decode stack, pin the
# differential (spliced) decode to the cold full peel bit-for-bit —
# single-sketch success/FAIL transitions, the arena-aliasing guard, the
# CacheBytes base accounting, fine-grained merge invalidation and the
# alternating ingest/extract ensemble equivalence, and the guess-parallel
# selection scan's bit-identity with ResultSerial (selected guess,
# coreset, error text) at 2/4/8 workers — under -race, then replay the
# FuzzIncrementalDecodeMatchesCold seed corpus. Runs in a couple of
# minutes; CI runs it before the full suite so differential-decode and
# selection-scan regressions fail fast.
check-incr:
	go vet ./internal/sketch ./internal/stream
	go test -race -run 'Incremental|Spliced|MergeFineGrained|CacheBytesIncludesBase|StoringCacheStats|StoringMergeDrop|ExtractParallelMatchesSerial' ./internal/sketch ./internal/stream
	go test -race -run 'FuzzIncrementalDecodeMatchesCold' ./internal/sketch

# Fast telemetry pass: vet the obs package and the bench/diff CLI, run
# their tests under -race (vectors, series, trace propagation, the
# /debug endpoints under concurrent writers, the -diff gate), then gate
# the disabled-path overhead — scalar and labeled-vector — without -race
# (race instrumentation inflates atomic loads by design, so the ns/op
# budget only means something in a plain build; see bench_test.go). CI
# runs it before the full suite so a hot-path telemetry regression fails
# fast.
check-obs:
	go vet ./internal/obs ./cmd/bcbench
	go test -race ./internal/obs ./cmd/bcbench
	go test -run OverheadBudget ./internal/obs
	go test -run xxx -bench 'Disabled' -benchtime 100000x ./internal/obs

# Fast write-path and decoder kernel pass: vet the hashing/sketch/grid/
# stream layers, then under -race pin
#   - the 4-lane batched field kernels (Eval4/EvalN, SampleN, Key4/KeyN,
#     ParentKeys4, CellIndexN) to their scalar routines,
#   - both sketch write layouts (bucket-ordered and 4-lane scatter,
#     driven directly, plus the size-rule dispatch) and the Storing
#     batched write to per-op Update / Insert/Delete, including
#     duplicate-heavy and coalesced zero-delta batches,
#   - the worklist peeling decoder to the round-based reference decoder,
#   - the ingest key coalescer (Apply against the per-op and uncoalesced
#     oracles of internal/stream/oracle_test.go),
# replaying the FuzzEvalLanesMatchScalar, FuzzDecodeWorklistMatchesReference
# and FuzzCoalescedIngestMatchesSerial seed corpora. Runs in a couple of
# minutes; CI runs it before the full suite so hot-path kernel and
# ingest-write-path regressions fail fast.
check-kernels:
	go vet ./internal/hashing ./internal/sketch ./internal/grid ./internal/stream
	go test -race -run 'MatchesScalar|MatchScalar|MatchesReference|Worklist|InvCountField|DecodeArena|DecodeResults|PureAt|LaneKernels|Coalesce|Scaled|Ordered|CellIndexN|DuplicateHeavy|ReusedScratch|UpdateKeyed' ./internal/hashing ./internal/sketch ./internal/grid ./internal/stream

# Serving-loop benchmark smoke pass: vet and test the perfbench module
# (its own go.mod, so the root go test ./... does not reach it), then run
# every workload briefly. perfbench exits non-zero on any CHECK FAILED —
# a state digest that disagrees with a fresh ensemble, a coreset that
# breaks the 30% weight rule, or a solve without k finite-cost centers.
# serve-churn solves on every 8th query of an instance, so it runs 7
# nominal seconds (9 rounds per instance) to reach one solve each.
check-perfbench:
	cd perfbench && go vet . && go test .
	bash perfbench/run.sh --workload firehose --seed 1 --seconds 1 --trace 0
	bash perfbench/run.sh --workload query-hot --seed 1 --seconds 1 --trace 0
	bash perfbench/run.sh --workload serve-churn --seed 1 --seconds 7 --trace 0

test:
	go build ./... && go test ./...

vet:
	go vet ./...

# Ingest-, extraction- and assignment-throughput benchmarks
# (EXPERIMENTS.md records the reference runs).
bench:
	go test -run xxx -bench 'Ingest|Extract|AssignSweep' -benchmem ./internal/stream/ .

# Revision-stamped bcbench binary (see STAMP_LDFLAGS above).
bcbench:
	go build -ldflags "$(STAMP_LDFLAGS)" -o bin/bcbench ./cmd/bcbench

# Regenerate every BENCH_*.json with a stamped binary, so the meta block
# records the producing commit instead of "unknown".
bench-json: bcbench
	./bin/bcbench -bench

# Benchmark regression gate: re-run the bench suite at the same default
# geometry into BENCH_DIFF_DIR, then diff every committed BENCH_*.json
# against the fresh record. bcbench -diff exits non-zero when a gated
# (per_sec / speedup / ns_per / sec_* / _bits) metric falls below
# BENCH_DIFF_TOL of its committed value; the default 0.35 is loose on
# purpose — shared CI hosts jitter ±30% and the gate is after 2x-class
# regressions, not single-digit drift (tighten locally with
# BENCH_DIFF_TOL=0.6 on quiet hardware).
BENCH_DIFF_DIR ?= /tmp/bcbench-diff
BENCH_DIFF_TOL ?= 0.35
bench-diff: bcbench
	mkdir -p $(BENCH_DIFF_DIR)
	./bin/bcbench -bench -outdir $(BENCH_DIFF_DIR)
	@for f in BENCH_*.json; do \
		./bin/bcbench -diff -tol $(BENCH_DIFF_TOL) $$f $(BENCH_DIFF_DIR)/$$f || exit 1; \
	done

# CPU profile of the batched ingest benchmark, for the next pprof-driven
# optimisation round: `go tool pprof ingest_cpu.pprof`.
profile-ingest:
	go test -run xxx -bench 'IngestAutoApply$$' -benchtime 30x -cpuprofile $(CURDIR)/ingest_cpu.pprof ./internal/stream

# CPU profile of the periodic (mixed ingest + extraction) benchmark —
# the serving pattern the differential decode targets — for the next
# pprof-driven optimisation round: `go tool pprof extract_cpu.pprof`.
profile-extract:
	go test -run xxx -bench 'ExtractAutoPeriodic$$' -benchtime 30x -cpuprofile $(CURDIR)/extract_cpu.pprof ./internal/stream
