GO ?= go

.PHONY: build test test-short verify sharded-golden cover chaos bench bench-analyzer bench-fleet bench-remedy bench-qoestore bench-qoemon bench-all sweep sweep-golden

build:
	$(GO) build ./...
	$(GO) build -o bin/qoeexp ./cmd/qoeexp
	$(GO) build -o bin/qoedoctor ./cmd/qoedoctor
	$(GO) build -o bin/qoefleet ./cmd/qoefleet
	$(GO) build -o bin/qoeserve ./cmd/qoeserve
	$(GO) build -o bin/traceview ./cmd/traceview

test: build
	$(GO) test ./...

test-short: build
	$(GO) test -short ./...

# Full verification: static checks plus the race-enabled suite, then the
# qoestore chaos drills. Each simulation kernel is single-goroutine by
# design, but the sweep engine runs whole simulations on concurrent goroutines,
# so -race exercises real concurrency (internal/sweep's parallel-vs-serial
# golden runs under it). The suite also checks every pinned output digest:
# the fleet goldens (internal/fleet/testdata) and the whole experiment
# registry (internal/experiments/testdata). It runs every example once
# (about 2 s together with a warm build cache), then ends with 10 s fuzzes
# of the message framing and the two capture readers (QxDM logs and pcap
# files, each through the analyses traceview runs on it), a vet of the
# benchmark module (its own module, so the root vet stops short of it) and
# the benchmark's ~10 s smoke test.
verify: build
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt: needs formatting:"; echo "$$fmt_out"; exit 1; fi
	$(GO) vet ./...
	$(GO) test -race ./...
	$(MAKE) cover
	$(MAKE) chaos
	$(MAKE) sharded-golden
	@set -e; for ex in examples/*/; do echo "$(GO) run ./$$ex"; $(GO) run ./$$ex > /dev/null; done
	$(GO) test -run '^$$' -fuzz FuzzMsgConnFeed -fuzztime 10s ./internal/netsim/
	$(GO) test -run '^$$' -fuzz FuzzQxDMLog -fuzztime 10s ./internal/qxdm/
	$(GO) test -run '^$$' -fuzz FuzzPcapFile -fuzztime 10s ./internal/pcap/
	cd bench && $(GO) vet . && $(GO) test .

# The sharded fleet's determinism contract, pinned at both extremes of
# runtime parallelism: the multi-cell mobility goldens (plain and
# remediated) must render byte-identically at GOMAXPROCS=1 and
# GOMAXPROCS=4 and match their pinned digests (the tests also sweep shard
# worker counts internally). The lockstep tests run under the race
# detector at the same two settings: at GOMAXPROCS=1 every helper shares
# one P with its coordinator, and GOMAXPROCS=4 oversubscribes the cores
# with up to 16 workers (a request for 32 is capped at the 16 kernels).
sharded-golden:
	GOMAXPROCS=1 $(GO) test -run TestShardedFleetGolden -count=1 ./internal/fleet/
	GOMAXPROCS=4 $(GO) test -run TestShardedFleetGolden -count=1 ./internal/fleet/
	GOMAXPROCS=1 $(GO) test -race -run TestLockstep -count=1 ./internal/simtime/
	GOMAXPROCS=4 $(GO) test -race -run TestLockstep -count=1 ./internal/simtime/

# Coverage floor for the monitoring-critical packages: the SLO engine and
# the durable store must each keep >= 80% statement coverage — an alert
# pipeline nobody tests is worse than no alert pipeline.
COVER_FLOOR ?= 80
cover:
	@set -e; for pkg in ./internal/qoemon/ ./internal/qoestore/; do \
		line=$$($(GO) test -cover $$pkg | tail -1); echo "$$line"; \
		pct=$$(echo "$$line" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "cover: no coverage figure for $$pkg"; exit 1; fi; \
		if [ "$$(awk -v p=$$pct -v f=$(COVER_FLOOR) 'BEGIN{print (p>=f)?1:0}')" != 1 ]; then \
			echo "cover: $$pkg at $$pct% is under the $(COVER_FLOOR)% floor"; exit 1; fi; \
	done

# Crash/overload drills for the durable QoE store: simulated SIGKILLs with
# zero acked-event loss, torn and corrupt WAL tails, slow-consumer
# backpressure, and degraded-mode sampling — run twice under the race
# detector to vary goroutine interleavings.
chaos:
	$(GO) test -race -run 'TestChaos' -count=2 ./internal/qoestore/

# Benchmarks: every paper-figure benchmark plus the PR 3 perf record —
# kernel micro-costs, the Facebook-workload allocation profile compared
# against the checked-in BENCH_PR2.json baseline, and the full sweep serial
# vs parallel. Writes BENCH_PR3.json (BENCH_PR2.json stays as the baseline).
bench:
	$(GO) test -bench=. -benchmem
	BENCH_PR3_JSON=BENCH_PR3.json $(GO) test -run TestWriteBenchPR3JSON -v .

# PR 4 analyzer performance record: the linear-vs-indexed long-jump mapper
# and the serial-vs-parallel cross-layer engine on the mapping-heavy 3G
# browsing workload (the linear mapper and serial engine are test-only
# oracles). Writes BENCH_PR4.json and fails if the indexed mapper
# falls under the 3x speedup floor.
bench-analyzer:
	BENCH_PR4_JSON=$(CURDIR)/BENCH_PR4.json $(GO) test -run TestWriteBenchPR4JSON -v ./internal/core/analyzer/

# PR 5 fleet scaling record: ns/op and allocs/op per simulated UE at
# N=1/8/64 on a shared cell. Writes BENCH_PR5.json and fails if the per-UE
# cost at N=64 exceeds 2x the N=1 per-UE cost.
# PR 8 sharded record: the 16-cell, 1024-UE fleet, serial and parallel shard
# workers. Writes BENCH_PR8.json; fails if sharded per-UE-virtual-second
# cost exceeds 2x the single-UE baseline, or (on >= 4 cores) if parallel
# workers deliver < 2x speedup over workers=1.
bench-fleet:
	BENCH_PR5_JSON=$(CURDIR)/BENCH_PR5.json $(GO) test -run TestWriteBenchPR5JSON -v ./internal/fleet/
	BENCH_PR8_JSON=$(CURDIR)/BENCH_PR8.json $(GO) test -run TestWriteBenchPR8JSON -v -timeout 40m ./internal/fleet/

# PR 10 remediation control-plane record: observe-mode controller overhead
# on a 16-UE fleet (the full fold + diagnosis pipeline with actuation off;
# budget 5%) and the remediated 40kbps-throttled storm at N=256 and N=1024
# with interventions per wall second. Writes BENCH_PR10.json.
bench-remedy:
	BENCH_PR10_JSON=$(CURDIR)/BENCH_PR10.json $(GO) test -run TestWriteBenchPR10JSON -v -timeout 40m ./internal/fleet/

# PR 6 resilience record for the durable QoE store: sustained ingest
# throughput with and without fsync, and query latency under hot concurrent
# ingest. Writes BENCH_PR6.json and fails if NoSync ingest drops under 50k
# events/s or the hot p99 query exceeds 50ms.
bench-qoestore:
	BENCH_PR6_JSON=$(CURDIR)/BENCH_PR6.json $(GO) test -run TestWriteBenchPR6JSON -v ./internal/qoestore/

# PR 7 monitoring record: one full SLO evaluation pass over 10k series keys
# and the Prometheus text encode of a ~300-instrument registry. Writes
# BENCH_PR7.json and fails if evaluation drops under 100k series/s or one
# encode exceeds 10ms.
bench-qoemon:
	BENCH_PR7_JSON=$(CURDIR)/BENCH_PR7.json $(GO) test -run TestWriteBenchPR7JSON -v ./internal/qoemon/

# Every per-PR benchmark record in one pass.
bench-all: bench bench-analyzer bench-fleet bench-remedy bench-qoestore bench-qoemon

# Run the full experiment sweep on all cores.
sweep: build
	./bin/qoeexp -all -parallel 0

# Opt-in full `-all -seed 42` determinism golden (serial vs parallel bytes).
sweep-golden:
	SWEEP_FULL=1 $(GO) test -run TestFullSweepGolden -v ./internal/sweep/
