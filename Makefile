GO ?= go

.PHONY: build test lint verify benchtables bench fuzz clean

# Tier-1 gate: everything must build and the full suite must pass.
build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# Static gates: vet, the exported-surface documentation check — every
# exported identifier in the facade and in the concurrency/durability
# packages (internal/cm, internal/gateway, internal/binproto,
# internal/store, internal/obs, internal/frame) must carry a doc comment
# stating its contract — the wire-spec sync check: every exported opcode,
# error code, and flag constant in internal/binproto must be mentioned in
# docs/PROTOCOL.md, so the spec cannot silently fall behind the code — and
# the one-envelope and one-cursor gates: outside internal/frame (and bench/,
# whose oracle is independent on purpose) no non-test Go file imports
# hash/crc32 or calls one of encoding/binary's varint readers — what is
# inside a payload is read through frame.Cursor, under its one forged-length
# rule and its one "fits an int" bound — and gofmt: no file it would change —
# and the reachability check: an exported package-level identifier under
# internal/, or an exported field of a *Config / *Options struct there, that
# no non-test file of the module or of bench/ names fails the build, unless
# its declaration says //unreached:testsupport <reason> (tools/unreached).
lint:
	$(GO) vet ./...
	$(GO) run ./tools/missingdoc
	$(GO) run ./tools/speclink
	$(GO) run ./tools/unreached
	@! grep -rl --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=frame '"hash/crc32"' . || { echo 'lint: hash/crc32 imported outside internal/frame (see ARCHITECTURE.md "Framing")'; exit 1; }
	@! grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=frame 'binary\.(Read)?(Uv|V)arint\(' . || { echo 'lint: varint read outside internal/frame: use frame.Cursor (see ARCHITECTURE.md "Framing")'; exit 1; }
	@test -z "$$(gofmt -l .)" || { echo 'lint: gofmt would change:'; gofmt -l .; exit 1; }

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
# counters), then the binary-lookup example and the six in-process library
# examples, each of which log.Fatals on a wrong result. The race-detected
# suite includes the seeded cluster scale
# harness (internal/cluster TestClusterScaleUnderLoad: shard add + drain
# under Zipf load, zero lost blocks, oracle-checked reads). Run this before
# merging anything that touches the server, the rebuild executor, the
# fault injectors, the gateway, the store, the replication layer, or the
# cluster router — the concurrency- and durability-sensitive layers.
# bench/ is a module of its own that compiles against internal/ (cluster
# above all), so the root ./... does not see it: vet and test it here, or an
# API change that breaks the benchmark surfaces only in the acceptance run.
# One of its tests FAILS since PR 22, which could not touch bench/, so this
# target stops at the bench test line until the next benchmark PR:
# TestTracedRunRecordsSpans wants a "gateway.http_read" span (and its two
# shadow children) on lookup_routed, which the benchmark opens when the
# sampled request's path arrives at a shard's HTTP handler — and a routed
# read never arrives there: since PR 24 the router answers it from its view
# of the shard (EXPERIMENTS E28), and the hop that remains as the fallback is
# a binary frame on an upgraded connection (E26: the budget's gateway row
# reads 0). It is not skipped: the failure is three "no ... span"
# lines for lookup_routed and nothing else; the lines after it are run by
# hand until then (ROADMAP item 3b).
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
	for ex in quickstart lifecycle diskupgrade faulttolerance traces videoserver; do $(GO) run ./examples/$$ex >/dev/null || exit 1; done

# Regenerate the committed experiment-table capture (the source for the
# tables quoted in README.md and EXPERIMENTS.md), so docs cannot silently
# drift from the code. Commit the refreshed file with any change that
# moves a number.
benchtables:
	$(GO) run ./cmd/benchtables > benchtables_output.txt
	@echo "regenerated benchtables_output.txt"

# Capture every benchmark in the module as BENCH_$(PR).json (benchmark name →
# ns/op, bytes/op, allocs/op): one target, no hand-kept -bench regexp, so
# consecutive captures have the same keys and diff line by line. PR is the
# number of the change taking the capture: `make bench PR=17`. Only the
# latest captures are kept in the tree; git has the rest. CI's allocation
# gate (`benchjson -allocs-against`, .github/workflows/ci.yml) names the
# newest one: point it at the new file when a capture replaces it.
bench:
	@test -n "$(PR)" || { echo 'usage: make bench PR=<n>   (writes BENCH_<n>.json)'; exit 2; }
	$(GO) test -run '^$$' -bench . -benchmem ./... | $(GO) run ./tools/benchjson > BENCH_$(PR).json
	@echo "regenerated BENCH_$(PR).json"

# Short fuzz passes over every decoder that reads bytes from a disk or a
# socket, 20 s each (the same for all, so none is shortened or skipped
# alone): the History codecs (seed corpora under
# internal/scaddar/testdata/fuzz/), the compiled-chain differential fuzzer
# (compiled vs interpreted lookups), the write-ahead-journal reader and the
# checkpoint / metadata decoder under it, the binary-protocol frame handler
# (hostile frames against a live server; the connection must survive or die
# per spec, never panic), the four replication payloads, the chunk stream
# reader, the segment record and index.idx loader, the locator feed's two
# JSON replies as a follower applies them (arbitrary snapshot and delta-page
# bytes: no panic, no disk outside the array, an unhealthy-disk entry out of
# range refused like a PreOf one), the router's shard-reply
# reader (arbitrary shard bytes: no panic, no body over the 8 MiB cap or
# under a HEAD, no kept connection after an error) and its reader of an
# upgraded connection (the 101, the handshake, the reply frame: no answer
# the bytes do not spell out, no kept connection after an error), the shared
# envelope (internal/frame: its three readers agree on every input, none
# over-allocates for a forged length) and the payload cursor every decoder
# above is written on (random read sequences against encoding/binary) — and
# two that read no bytes from outside: the disk inventory's paged bitmap
# against a plain map under the same Store / Remove / Has / Blocks / Fail
# script, over the three ID shapes the module mints, and the locator feed's
# retention under a script of publishes and a follower that polls at
# arbitrary lags (it ends where a follower that saw every delta does, and is
# refused only out of a ring that begins with a moves delta). Fifteen targets.
fuzz:
	$(GO) test ./internal/scaddar/ -fuzz FuzzCodec -fuzztime 20s
	$(GO) test ./internal/scaddar/ -fuzz FuzzCompiledChain -fuzztime 20s
	$(GO) test ./internal/store/ -fuzz FuzzJournal -fuzztime 20s
	$(GO) test ./internal/store/ -fuzz FuzzCheckpoint -fuzztime 20s
	$(GO) test ./internal/binproto/ -fuzz FuzzBinProto -fuzztime 20s
	$(GO) test ./internal/repl/ -fuzz FuzzReplPayload -fuzztime 20s
	$(GO) test ./internal/dataplane/ -fuzz FuzzChunkFrame -fuzztime 20s
	$(GO) test ./internal/dataplane/ -fuzz FuzzSegmentRecord -fuzztime 20s
	$(GO) test ./internal/dataplane/ -fuzz FuzzLocatorFeed -fuzztime 20s
	$(GO) test ./internal/dataplane/ -fuzz FuzzFeedLag -fuzztime 20s
	$(GO) test ./internal/cluster/ -fuzz FuzzShardResponse -fuzztime 20s
	$(GO) test ./internal/cluster/ -fuzz FuzzShardBinReply -fuzztime 20s
	$(GO) test ./internal/frame/ -fuzz FuzzFrame -fuzztime 20s
	$(GO) test ./internal/frame/ -fuzz FuzzCursor -fuzztime 20s
	$(GO) test ./internal/disk/ -fuzz FuzzInventory -fuzztime 20s

clean:
	$(GO) clean ./...
