GO ?= go

.PHONY: all build vet test race tier1 loc fmt bench-test bench bench-allocs bench-scaling bench-heap bench-overhead

all: tier1

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The one race-detector pass, over every package with concurrency in it:
# the sharded concurrent S3-FIFO machine (TestStressInvariants runs here)
# and the lock-free ring the optimized LRU builds on, telemetry (hammered while scraped),
# the TCP server with the miss coalescer and leases, the fault-injecting
# filesystem and both on-disk stores on it (the flash tier, and the file
# store the benchmark's tier-file rungs drive), the cache facade (breaker
# prober, Save/Close), the client, the hash ring and cluster router, the
# harness (its herd test drives the anti-stampede server over TCP), and
# the root end-to-end tests (flash outage, restart).
RACE_PKGS = ./internal/concurrent/... ./internal/lockfree/... ./internal/telemetry/... \
	./internal/server/... ./internal/faultfs/... ./internal/flash/... ./internal/filetier/... \
	./internal/hashring/... ./internal/harness/... ./cache/... ./client/... ./cluster/... .

race:
	$(GO) test -race $(RACE_PKGS)

# Tier-1 verification: everything must build and vet clean, the full
# suite must pass, and the concurrent paths must be race-clean.
tier1: build vet test race

# Line ceiling: the non-test Go outside bench/ (a module of its own) and
# outside testdata/ directories (which go build skips) may not grow past
# LOC_CEILING. A change that deletes code lowers it to what it leaves.
#
# Flag ceiling: s3cached may not register more than FLAG_CEILING flags.
# A change that adds one raises the ceiling in its own diff and says why;
# a change that deletes one lowers it.
LOC_CEILING = 20896
FLAG_CEILING = 20
loc:
	@n=$$(find . \( -path ./bench -o -path './.*' -o -name testdata \) -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l); \
	echo "non-test Go outside bench/: $$n lines, ceiling $(LOC_CEILING)"; \
	test $$n -le $(LOC_CEILING)
	@f=$$(grep -oE '\bflag\.[A-Z][A-Za-z0-9]*\(' cmd/s3cached/main.go | grep -cvE 'flag\.(Parse|Parsed|Args?|NArg|NFlag|Lookup|Set|Visit|VisitAll|PrintDefaults|Usage)\('); \
	echo "s3cached flags: $$f, ceiling $(FLAG_CEILING)"; \
	test $$f -le $(FLAG_CEILING)

# Formatting: gofmt lists no file anywhere in the tree, bench/ included.
fmt:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

# The benchmark (bench/, a module of its own) has its own tests: golden
# stream hashes, the lying-store checker, catalogue == BENCHMARK.json, and
# a ~70 s smoke of all four workloads.
bench-test:
	$(GO) test -C bench ./...

bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# Allocation gates: the binary-protocol hot path (the server's GET
# hit/miss dispatch and the frame codec must be 0 allocs/op, a SET of a
# new key 3: value, key, entry, of a resident key 2: value, key), the
# engine (an in-place overwrite 0 on both fronts) and the flash tier
# (amortised 0 for Put and Delete, 1 for every Get: the value it returns;
# the index keeps no key, so bumping a record's access counter copies
# none). testing.AllocsPerOp/AllocsPerRun assertions; skipped under -race,
# which allocates.
bench-allocs:
	$(GO) test -run='^TestAllocGate' -v ./internal/proto ./internal/server ./internal/concurrent ./internal/flash

# Hit-scaling gate: a cache hit must cost a goroutine at most 1.5x as much
# with a second goroutine hitting the same cache as alone (the paper's
# §4.3 claim; BenchmarkHitScaling prints the two figures). Skipped on one
# CPU.
bench-scaling:
	$(GO) test -run='^TestHitScalingGate$$' -v ./cache -scaling-gate

# Steady-state heap gate: after S has peaked at the whole cache and 20x
# the capacity of mixed traffic, a quarter of it in-place overwrites of
# resident hot keys, has shrunk it to its 10 %, the live heap
# concurrent.KV holds per charged byte must stay under 1.9 (it measures
# 1.72; an entry that keeps the first value it was given reads 2.25).
# And the flash store, churned through 100 reclamations of a 64 MiB log,
# must hold at most 150 B of live heap per indexed record (it measures
# 103; an index keyed by copies of the keys, with a reclamation buffer a
# segment long, reads 353). Skipped under -race.
bench-heap:
	$(GO) test -run='^TestSteadyStateHeapPerEntry$$' -v ./internal/concurrent
	$(GO) test -run='^TestFlashHeapPerRecord$$' -v ./internal/flash

# Telemetry-overhead gate: fails when a live metrics registry costs more
# than 5% throughput vs the nil-registry fast path (DESIGN.md §9;
# TestTelemetryOverheadGate in cache/, best of 3 alternating trials of 1M
# get-or-set operations each).
bench-overhead:
	$(GO) test -run='^TestTelemetryOverheadGate$$' -v ./cache -overhead-gate
