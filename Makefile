GO ?= go

.PHONY: build test lint verify benchtables bench bench-cluster bench-stream bench-bin fuzz clean

# Tier-1 gate: everything must build and the full suite must pass.
build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# Static gates: vet, the exported-surface documentation check — every
# exported identifier in the facade and in the concurrency/durability
# packages (internal/cm, internal/gateway, internal/binproto,
# internal/store, internal/obs) must carry a doc comment stating its
# contract — and the wire-spec sync check: every exported opcode, error
# code, and flag constant in internal/binproto must be mentioned in
# docs/PROTOCOL.md, so the spec cannot silently fall behind the code.
lint:
	$(GO) vet ./...
	$(GO) run ./tools/missingdoc
	$(GO) run ./tools/speclink

# Tier-1+ gate: lint plus the full suite under the race detector — which
# includes the replication chaos harness (internal/repl TestChaosConvergence:
# seeded network faults + a leader kill/restart, byte-identical convergence)
# — then the gateway example end to end (live HTTP scaling + failure drill +
# drain; it exits non-zero if any concurrent read fails), the crash-recovery
# example (journal bootstrap, torn-write crash mid-migration, recovery with
# every block location verified), the replication example (journal
# shipping through the fault injector with a leader restart, every block
# location compared), the cluster example (a shard joins a 3-shard
# cluster under live load; moved fraction within 10% of the jump-hash
# ideal, every object verified on its home shard, zero failed reads), and
# the streaming example (real segment-store bytes paced to concurrent
# chunked sessions through a scale-up and a disk fail/rebuild; every chunk
# oracle-verified, delivery accounted chunk-for-chunk against the server's
# counters). The race-detected suite includes the seeded cluster scale
# harness (internal/cluster TestClusterScaleUnderLoad: shard add + drain
# under Zipf load, zero lost blocks, oracle-checked reads). Run this before
# merging anything that touches the server, the rebuild executor, the
# fault injectors, the gateway, the store, the replication layer, or the
# cluster router — the concurrency- and durability-sensitive layers.
# bench/ is a module of its own that compiles against internal/ (cluster
# above all), so the root ./... does not see it: vet and test it here, or an
# API change that breaks the benchmark surfaces only in the acceptance run.
verify: lint
	$(GO) test -race ./...
	$(GO) -C bench vet ./...
	$(GO) -C bench test -race ./...
	$(GO) run ./examples/gateway -duration 200ms
	$(GO) run ./examples/recovery
	$(GO) run ./examples/replication
	$(GO) run ./examples/cluster -duration 200ms
	$(GO) run -race ./examples/streaming -round 60ms -sessions 48 -disks 12 -add 2 -objects 24 -blocks 12
	$(GO) run ./examples/binlookup

# Regenerate the committed experiment-table capture (the source for the
# tables quoted in README.md and EXPERIMENTS.md), so docs cannot silently
# drift from the code. Commit the refreshed file with any change that
# moves a number.
benchtables:
	$(GO) run ./cmd/benchtables > benchtables_output.txt
	@echo "regenerated benchtables_output.txt"

# Capture the core benchmark suite as BENCH_5.json (benchmark name →
# ns/op, allocs/op), the committed perf baseline for the compiled-chain
# work. Re-run and commit with any change that moves a number.
bench:
	$(GO) test -run '^$$' -bench 'Locat|Lookup|Snapshot|PlanAdd|SafeLocator|Strategy|Codec|PRNG|Gateway|Compiled' -benchmem ./... | $(GO) run ./tools/benchjson > BENCH_5.json
	@echo "regenerated BENCH_5.json"

# Capture the cluster-router benchmarks as BENCH_7.json: the pure routing
# decision (whitening + jump hash, per shard count) and the full routed
# read path through a live 3-shard cluster, to compare against the
# single-gateway BenchmarkGatewayRead baseline in BENCH_5.json. Re-run and
# commit with any change that moves a number.
bench-cluster:
	$(GO) test -run '^$$' -bench 'ClusterRoute|ClusterGatewayRead' -benchmem ./internal/cluster/ | $(GO) run ./tools/benchjson > BENCH_7.json
	@echo "regenerated BENCH_7.json"

# Capture the streaming data-plane benchmarks as BENCH_10.json: the
# per-chunk hot path (pooled buffer → session buffer → wire frame →
# scratch-reuse client decode, zero allocations per chunk), the locator
# feed's publish/catch-up cycle alone and fanning out to 64 parked
# long-pollers, and the full round-delivery path (per-disk batched,
# coalesced segment reads feeding every playing stream) across disk counts
# plus the unbatched per-block baseline. BENCH_8.json is the pre-pooling
# capture of the same chunk path, kept as history. Re-run and commit with
# any change that moves a number.
bench-stream:
	$(GO) test -run '^$$' -bench 'StreamChunk|DeltaFeed|RoundDelivery' -benchmem ./internal/dataplane/ ./internal/cm/ | $(GO) run ./tools/benchjson > BENCH_10.json
	@echo "regenerated BENCH_10.json"

# Capture the binary-lookup-protocol benchmarks as BENCH_9.json: frame
# encode/decode alone, then the full client/server round trip over
# loopback TCP — single pipelined lookups and 64-lookup batches — next to
# the HTTP read path (BenchmarkGatewayRead) they are measured against in
# EXPERIMENTS.md E20. Re-run and commit with any change that moves a
# number.
bench-bin:
	$(GO) test -run '^$$' -bench 'GatewayRead|EncodeBatch|DecodeBatch' -benchmem ./internal/gateway/ ./internal/binproto/ | $(GO) run ./tools/benchjson > BENCH_9.json
	@echo "regenerated BENCH_9.json"

# Short fuzz passes over the History codecs (seed corpora under
# internal/scaddar/testdata/fuzz/), the compiled-chain differential
# fuzzer (compiled vs interpreted lookups), the write-ahead-journal
# reader, the binary-protocol frame handler (hostile frames against a
# live server; the connection must survive or die per spec, never panic),
# and the router's shard-reply reader (arbitrary shard bytes: no panic, no
# body over the 8 MiB cap or under a HEAD, no kept connection after an error).
fuzz:
	$(GO) test ./internal/scaddar/ -fuzz FuzzCodec -fuzztime 30s
	$(GO) test ./internal/scaddar/ -fuzz FuzzCompiledChain -fuzztime 30s
	$(GO) test ./internal/store/ -fuzz FuzzJournal -fuzztime 30s
	$(GO) test ./internal/binproto/ -fuzz FuzzBinProto -fuzztime 30s
	$(GO) test ./internal/cluster/ -fuzz FuzzShardResponse -fuzztime 30s

clean:
	$(GO) clean ./...
