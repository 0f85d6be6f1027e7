GO ?= go

.PHONY: all build test test-race test-disk test-dist test-daemon test-bench vet fmt-check docs-check bench bench-kernel bench-smoke bench-ref bench-compare fuzz loc clean

all: build test vet fmt-check docs-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass. The hot spots are the lock-striped caches, the
# federation fan-out, the work-stealing compare stage and the worker
# pool underneath them, but the whole tree runs in ~2 minutes, so check
# everything.
test-race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Persistence-layer gate: the store parity suites (including the
# mutable add/remove parity and compaction tests), the doc-vs-stream and
# incremental-update equivalence suites, the warm-start suite, the
# trace-chain cadence, crash-window and rejection suites, and the
# odcodec round-trip / delta-segment tests, under the race detector.
# DiskStore segment dirs live in each test's t.TempDir. CI runs this as
# its own job.
test-disk:
	$(GO) test -race -run 'Disk|Snapshot|WarmStart|Parity|Equivalence|RoundTrip|Corrupt|Truncat|Mutable|Update|Delta|Traces|Cadence|CrashWindow' \
		./internal/od/... ./internal/core/... ./cmd/dogmatix/...

# Distributed-store gate: the whole odrpc transport package (frame
# codec, loopback parity, version skew, timeouts), the federation
# parity/fault/persistence suites, and the dist rows of the end-to-end
# parity and equivalence suites, all under the race detector. Loopback
# transports only — no sockets open. The CI container is single-core,
# so partition-parallel wall-time wins only show on multicore hardware.
test-dist:
	$(GO) test -race ./internal/od/odrpc/
	$(GO) test -race -run 'Partition|Federation|Loopback|StoreParity|Equivalence|DistStore|Routing|Replica|Rebalance' \
		./internal/od/... ./internal/core/... ./cmd/dogmatix/...

# Service-layer gate: the daemon's end-to-end lifecycle suites (cold and
# warm boots, query → update → re-query bit-identity against the
# one-shot chain on every backend), the concurrency and fault suites
# (parallel readers, drain-loses-nothing, member-failure-during-update),
# and the federation generation-snapshot protocol — all under the race
# detector, plus the dogmatixd flag/boot tests and the client-mode
# plumbing in the CLI. CI runs this as its own job.
test-daemon:
	$(GO) test -race ./internal/api/... ./cmd/dogmatixd/...
	$(GO) test -race -run 'Query|Submit|Client' ./cmd/dogmatix/...

# Documentation gate: vet plus the docscheck tool (package doc comments
# everywhere, markdown cross-references resolve). CI runs this as the
# docs job.
docs-check:
	$(GO) vet ./...
	$(GO) run ./cmd/docscheck README.md ARCHITECTURE.md ROADMAP.md

# Brief fuzz shake of the odcodec round-trip, manifest, delta-segment
# and federation-manifest decoding, the odrpc wire frames, and the
# edit-distance kernels against their textbook references.
fuzz:
	$(GO) test -fuzz FuzzRoundTrip -fuzztime 20s ./internal/od/odcodec/
	$(GO) test -fuzz FuzzOpenManifest -fuzztime 20s ./internal/od/odcodec/
	$(GO) test -fuzz FuzzDeltaRoundTrip -fuzztime 20s ./internal/od/odcodec/
	$(GO) test -fuzz FuzzFederation -fuzztime 20s ./internal/od/odcodec/
	$(GO) test -fuzz FuzzNeighborIndexRoundTrip -fuzztime 20s ./internal/od/odcodec/
	$(GO) test -fuzz FuzzCompressedSegment -fuzztime 20s ./internal/od/odcodec/
	$(GO) test -fuzz FuzzIndexCursor -fuzztime 20s ./internal/od/odcodec/
	$(GO) test -fuzz FuzzTraceSegment -fuzztime 20s ./internal/od/odcodec/
	$(GO) test -fuzz FuzzReadFrame -fuzztime 20s ./internal/od/odrpc/
	$(GO) test -fuzz FuzzServerConn -fuzztime 20s ./internal/od/odrpc/
	$(GO) test -fuzz FuzzEditKernels -fuzztime 20s ./internal/strdist/

bench:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# The Step 4–5 kernel layer by layer, with ns/op, B/op and allocs/op:
# the edit-distance kernels and the neighborhood probe (strdist), the
# two similar-value lookup tiers and the blocking-set merge in memory,
# the same tiers on disk by mmap and by pread, one posting-list question
# and the shared cache's hit path (od), one scored pair and one filter
# bound (sim), and the whole pipeline at the reference benchmark's
# detect_cd_mem shape on MemStore and on DiskStore plus one
# single-document update on each, per stage (core). CI smoke-runs it
# with BENCHTIME=1x.
BENCHTIME ?= 1s
bench-kernel:
	$(GO) test -run '^$$' -bench 'Kernels|NeighborIndexLookup' -benchmem -benchtime $(BENCHTIME) ./internal/strdist/
	$(GO) test -run '^$$' -bench 'TypeIndexCollect|NeighborsOf|DiskSimilarValues|DiskObjectsWithExact|ShardedLRUGet' -benchmem -benchtime $(BENCHTIME) ./internal/od/
	$(GO) test -run '^$$' -bench 'KernelScore|KernelFilter' -benchmem -benchtime $(BENCHTIME) ./internal/sim/
	$(GO) test -run '^$$' -bench 'DetectKernel|UpdateKernel' -benchmem -benchtime $(BENCHTIME) ./internal/core/

# The reference benchmark (bench/, a Go module of its own, so `make
# test` does not reach it; see bench/README.md). test-bench runs its
# unit tests (< 10 s, they spawn nothing). bench-smoke takes all five
# BENCHMARK.json workloads through both passes at tiny scale with the
# real dogmatix/dogmatixd processes, every output checked against the
# in-process MemStore oracle (~40 s on the 2-core reference box); CI
# runs both as the reference-benchmark job.
test-bench:
	$(GO) test -C bench ./...

bench-smoke:
	$(GO) test -C bench . -run Smoke -bench-smoke

# One full run of the reference benchmark: every end-to-end metric of
# every workload, by name. Add per-layer metrics with
# `go run -C bench . -workload NAME -trace 1`.
bench-ref:
	$(GO) run -C bench .

# Verdict (ok / regressed / unresolved) per workload and metric between
# two result envelopes written by `go run -C bench . -runs N -json
# FILE` (paths relative to the repository root):
# make bench-compare A=before.json B=after.json
bench-compare:
	@test -n "$(A)" -a -n "$(B)" || { echo "usage: make bench-compare A=before.json B=after.json"; exit 2; }
	$(GO) run -C bench . -compare $(A) $(B)

# Non-test Go line counts, information only: the main module outside
# bench/, then the store and pipeline packages one by one (each its own
# directory, subpackages excluded).
LOC_PKGS = internal/od internal/od/odcodec internal/od/odrpc internal/core
loc:
	@printf '%-28s %6d\n' 'main module (without bench/)' \
		$$(find . -path ./bench -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l)
	@for d in $(LOC_PKGS); do \
		printf '%-28s %6d\n' $$d $$(ls $$d/*.go | grep -v '_test\.go$$' | xargs cat | wc -l); \
	done

# Remove generated artifacts: the reference benchmark's binaries,
# scratch data and span files, and any stray dupcluster output the
# examples wrote into the working tree.
clean:
	rm -rf .bench_build
	rm -f dupclusters*.xml
