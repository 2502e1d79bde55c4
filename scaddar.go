// Package scaddar is a complete Go implementation of SCADDAR — "SCAling
// Disks for Data Arranged Randomly" (Goel, Shahabi, Yao, Zimmermann; USC TR
// 742 / ICDE 2002) — together with the continuous-media-server substrate the
// paper assumes and every baseline it compares against.
//
// SCADDAR places the blocks of continuous-media objects pseudo-randomly over
// a disk array and, when disks are added or removed, remaps block locations
// with a chain of cheap mod/div REMAP functions so that (RO1) only the
// minimum number of blocks move, (RO2) placement stays uniformly random and
// the load balanced, and (AO1) any block's location is computable online
// from its object's seed and the operation log alone — no directory.
//
// # Quick start
//
//	hist, _ := scaddar.NewHistory(8)            // 8 disks initially
//	loc, _ := scaddar.NewLocator(hist, func(seed uint64) scaddar.Source {
//		return scaddar.NewSplitMix64(seed)
//	})
//	disk, _ := loc.Disk(objectSeed, blockIndex)  // before scaling
//	hist.Add(2)                                  // grow to 10 disks
//	disk, _ = loc.Disk(objectSeed, blockIndex)   // after scaling: O(j) math
//
// For a full online server — admission control, round-based retrieval,
// throttled reorganization — see NewServer and the examples/ directory. The
// internal packages remain importable inside this module; this package
// re-exports the surface a downstream user needs.
package scaddar

import (
	"bufio"
	"io"

	"scaddar/internal/binproto"
	"scaddar/internal/cluster"
	"scaddar/internal/cm"
	"scaddar/internal/dataplane"
	"scaddar/internal/disk"
	"scaddar/internal/gateway"
	"scaddar/internal/hetero"
	"scaddar/internal/mirror"
	"scaddar/internal/obs"
	"scaddar/internal/parity"
	"scaddar/internal/placement"
	"scaddar/internal/prng"
	"scaddar/internal/repl"
	"scaddar/internal/scaddar"
	"scaddar/internal/stats"
	"scaddar/internal/store"
	"scaddar/internal/trace"
	"scaddar/internal/workload"
)

// ---- Core algorithm (internal/scaddar) ----

// History is the ordered log of scaling operations — SCADDAR's only
// persistent state besides per-object seeds.
type History = scaddar.History

// DiskArray couples a History with stable physical disk identities.
type DiskArray = scaddar.Array

// DiskID is a stable physical disk identity.
type DiskID = scaddar.DiskID

// Budget tracks the shrinking random range (Section 4.3 analysis).
type Budget = scaddar.Budget

// Locator is the complete access function AF(): seed + block index + log →
// disk.
type Locator = scaddar.Locator

// SourceFactory builds the per-object generator p_r(s_m).
type SourceFactory = scaddar.SourceFactory

// NewHistory creates a History for an array of n0 disks.
func NewHistory(n0 int) (*History, error) { return scaddar.NewHistory(n0) }

// MustNewHistory is NewHistory for statically valid arguments; it panics on
// error.
func MustNewHistory(n0 int) *History { return scaddar.MustNewHistory(n0) }

// NewDiskArray creates an Array of n0 disks with physical IDs 0..n0-1.
func NewDiskArray(n0 int) (*DiskArray, error) { return scaddar.NewArray(n0) }

// NewBudget creates a randomness budget for a b-bit generator and n0 disks.
func NewBudget(bits uint, n0 int) (*Budget, error) { return scaddar.NewBudget(bits, n0) }

// NewLocator binds a History to per-object pseudo-random sequences.
func NewLocator(hist *History, factory SourceFactory) (*Locator, error) {
	return scaddar.NewLocator(hist, factory)
}

// SafeLocator is a Locator whose lookups are safe for concurrent use (the
// access pattern of parallel stream handlers); scaling operations must
// still be serialized externally.
type SafeLocator = scaddar.SafeLocator

// NewSafeLocator creates a concurrency-safe locator over the given history.
func NewSafeLocator(hist *History, factory SourceFactory) (*SafeLocator, error) {
	return scaddar.NewSafeLocator(hist, factory)
}

// RuleOfThumb estimates the number of supportable scaling operations for a
// b-bit generator, an average array size, and unfairness tolerance eps
// (Section 4.3: k+1 <= (b - log2(1/eps)) / log2 N̄).
func RuleOfThumb(bits uint, eps float64, avgDisks float64) int {
	return scaddar.RuleOfThumb(bits, eps, avgDisks)
}

// MaxOpsExact simulates the exact Lemma 4.3 precondition for a disk-count
// trajectory.
func MaxOpsExact(bits uint, n0 int, eps float64, disksAfterOp func(j int) int, maxOps int) (int, error) {
	return scaddar.MaxOpsExact(bits, n0, eps, disksAfterOp, maxOps)
}

// PlannedOp is one future scaling operation for ForecastPlan.
type PlannedOp = scaddar.PlannedOp

// Forecast is a capacity-planning evaluation of future operations.
type Forecast = scaddar.Forecast

// ForecastPlan predicts per-operation movement (z_j), cumulative I/O, and
// the randomness-budget trajectory for a planned operation sequence,
// flagging where a complete redistribution becomes necessary.
func ForecastPlan(hist *History, bits uint, eps float64, plan []PlannedOp) (*Forecast, error) {
	return scaddar.ForecastPlan(hist, bits, eps, plan)
}

// ---- Pseudo-random generators (internal/prng) ----

// Source is a deterministic b-bit pseudo-random stream.
type Source = prng.Source

// NewSplitMix64 returns the default counter-based 64-bit generator.
func NewSplitMix64(seed uint64) *prng.SplitMix64 { return prng.NewSplitMix64(seed) }

// NewPCG32 returns a sequential 32-bit generator (the paper's b=32 setting).
func NewPCG32(seed uint64) *prng.PCG32 { return prng.NewPCG32(seed) }

// NewXorshift64Star returns a sequential 64-bit generator.
func NewXorshift64Star(seed uint64) *prng.Xorshift64Star { return prng.NewXorshift64Star(seed) }

// Truncate adapts a Source to a b-bit output width.
func Truncate(src Source, bits uint) Source { return prng.Truncate(src, bits) }

// ---- Placement strategies (internal/placement) ----

// BlockRef identifies a block by object seed and index.
type BlockRef = placement.BlockRef

// Strategy is a pluggable block-placement scheme.
type Strategy = placement.Strategy

// X0Func supplies a block's original random number.
type X0Func = placement.X0Func

// NewX0Func memoizes per-object sequences over a generator factory.
func NewX0Func(factory func(seed uint64) Source) X0Func { return placement.NewX0Func(factory) }

// NewScaddarStrategy creates the paper's placement scheme.
func NewScaddarStrategy(n0 int, x0 X0Func) (*placement.Scaddar, error) {
	return placement.NewScaddar(n0, x0)
}

// NewNaiveStrategy creates the Section 4.1 baseline (skews after 2 ops).
func NewNaiveStrategy(n0 int, x0 X0Func) (*placement.Naive, error) {
	return placement.NewNaive(n0, x0)
}

// NewReshuffleStrategy creates the complete-redistribution baseline.
func NewReshuffleStrategy(n0 int, x0 X0Func) (*placement.Reshuffle, error) {
	return placement.NewReshuffle(n0, x0)
}

// NewRoundRobinStrategy creates the constrained striping baseline.
func NewRoundRobinStrategy(n0 int) (*placement.RoundRobin, error) {
	return placement.NewRoundRobin(n0)
}

// NewDirectoryStrategy creates the Appendix A directory baseline.
func NewDirectoryStrategy(n0 int, src Source) (*placement.Directory, error) {
	return placement.NewDirectory(n0, src)
}

// NewConsistentStrategy creates a consistent-hashing comparator.
func NewConsistentStrategy(n0, vnodes int) (*placement.Consistent, error) {
	return placement.NewConsistent(n0, vnodes)
}

// NewJumpStrategy creates a jump-consistent-hashing comparator (grow and
// tail-shrink only — arbitrary disk retirement needs SCADDAR's removal
// REMAP).
func NewJumpStrategy(n0 int, x0 X0Func) (*placement.Jump, error) {
	return placement.NewJump(n0, x0)
}

// ---- Continuous-media server (internal/cm, internal/disk) ----

// Server is the online continuous-media server simulator.
type Server = cm.Server

// ServerConfig fixes round length, disk profile, block size, and admission
// target.
type ServerConfig = cm.Config

// ServerMetrics aggregates server activity.
type ServerMetrics = cm.Metrics

// Disk profiles of the paper's hardware era plus a modern comparator.
var (
	ProfileCheetah73    = disk.Cheetah73
	ProfileBarracuda180 = disk.Barracuda180
	ProfileModern       = disk.Modern
)

// DefaultServerConfig returns a paper-era server configuration.
func DefaultServerConfig() ServerConfig { return cm.DefaultConfig() }

// NewServer creates a continuous-media server over a placement strategy.
func NewServer(cfg ServerConfig, strat Strategy) (*Server, error) { return cm.NewServer(cfg, strat) }

// ---- Network gateway (internal/gateway) ----

// Gateway is the concurrent HTTP front end over one server: a wall-clock
// round driver owns the server, control operations serialize through a
// bounded command mailbox, and block lookups run lock-free against an
// atomically republished locator snapshot.
type Gateway = gateway.Gateway

// GatewayConfig tunes the gateway around a server.
type GatewayConfig = gateway.Config

// GatewayStatus is the owner-published status view (the /v1/status body).
type GatewayStatus = gateway.Status

// NewGateway wraps a server (objects already loaded) in a gateway and
// starts its round driver. The gateway takes ownership of the server.
func NewGateway(srv *Server, cfg GatewayConfig) (*Gateway, error) { return gateway.New(srv, cfg) }

// ---- Binary lookup protocol (internal/binproto) ----

// BinClient is a persistent, pipelining client connection for the binary
// lookup protocol specified in docs/PROTOCOL.md. Safe for concurrent use.
type BinClient = binproto.Client

// BinClientConfig tunes DialBin.
type BinClientConfig = binproto.ClientConfig

// BinResult is one lookup's outcome within a LocateBatch response.
type BinResult = binproto.Result

// BlockAddr names one block of one catalog object, the unit a batched
// lookup request carries.
type BlockAddr = cm.BlockAddr

// DialBin connects and handshakes with a binary lookup listener (the
// dedicated one: Gateway.ServeBin, or the serve -bin-addr / cluster -bin flags).
func DialBin(addr string, cfg BinClientConfig) (*BinClient, error) { return binproto.Dial(addr, cfg) }

// ---- Observability (internal/obs) ----

// MetricsRegistry is a typed registry of lock-free counters, gauges, and
// fixed-bucket histograms with Prometheus text exposition. Registration is
// idempotent: asking for an existing name (with the same type) returns the
// same cell, so a recovered server can adopt the registry of the instance
// it replaces.
type MetricsRegistry = obs.Registry

// Histogram is a fixed-bucket histogram; Observe is lock-free and
// allocation-free, suitable for request hot paths.
type Histogram = obs.Histogram

// MetricSample is one parsed sample from a Prometheus text exposition.
type MetricSample = obs.Sample

// MetricSet indexes parsed samples by name and label for assertions and
// scraping clients, including histogram reconstruction.
type MetricSet = obs.MetricSet

// NewMetricsRegistry returns an empty metrics registry. Pass it as
// GatewayConfig.Registry to share one across components or expose it on a
// debug listener.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewMetricSet wraps parsed samples for name/label lookup.
func NewMetricSet(samples []MetricSample) *MetricSet { return obs.NewMetricSet(samples) }

// ParseMetricsText parses a Prometheus text-format exposition (the
// /v1/metrics body) into samples.
func ParseMetricsText(r io.Reader) ([]MetricSample, error) { return obs.ParseText(r) }

// ExpBuckets returns n exponentially spaced histogram bucket bounds
// starting at lo, each factor times the previous.
func ExpBuckets(lo, factor float64, n int) []float64 { return obs.ExpBuckets(lo, factor, n) }

// ---- Durable state (internal/store) ----

// Store is the durable state store: every server mutation is journaled to a
// CRC-framed write-ahead log, periodic checkpoints serialize the full
// metadata, and recovery restores the newest checkpoint then replays the
// journal tail — truncating at the first torn or corrupt record. This is the
// paper's "storage structure for recording scaling operations" made
// crash-safe: the journal persists exactly the operation log plus object
// seeds that SCADDAR needs, never a block directory.
type Store = store.Store

// StoreConfig locates and tunes a durable state directory.
type StoreConfig = store.Config

// Durable-store sentinel errors.
var (
	ErrNoCheckpoint = store.ErrNoCheckpoint
	ErrStoreCorrupt = store.ErrCorrupt
)

// OpenStore opens (or, unless read-only, creates) a durable state
// directory. Use Store.Bootstrap for a fresh server and Store.Recover to
// rebuild one after a restart or crash.
func OpenStore(cfg StoreConfig) (*Store, error) { return store.Open(cfg) }

// ---- Replication (internal/repl) ----

// ReplicationLeader streams a store's journal to follower replicas over
// TCP: each follower bootstraps from the newest checkpoint and then tails
// committed records, so read capacity scales without moving or re-deriving
// any block state — only the operation log ships.
type ReplicationLeader = repl.Leader

// ReplicationLeaderConfig configures the streaming side of a leader.
type ReplicationLeaderConfig = repl.LeaderConfig

// Follower tails a leader's journal, applies events to a local replica
// server, and serves lock-free epoch-fenced reads from its own locator
// snapshot.
type Follower = repl.Follower

// FollowerConfig configures a follower replica.
type FollowerConfig = repl.FollowerConfig

// NetworkFaultInjector is a seeded TCP proxy that drops, stalls,
// truncates, and duplicates leader-to-follower traffic — the chaos
// harness's network. (FaultInjector is the disk-level injector.)
type NetworkFaultInjector = repl.FaultInjector

// NetworkFaultConfig sets the injector's target and fault rates.
type NetworkFaultConfig = repl.FaultConfig

// Replication read errors: both are retryable by design — the follower
// refuses rather than serves an answer it cannot vouch for.
var (
	// ErrEpochFenced rejects reads that would straddle a scaling operation
	// the follower has not applied yet.
	ErrEpochFenced = cm.ErrEpochFenced
	// ErrStaleRead rejects reads beyond the configured staleness budget
	// (or before the replica has bootstrapped).
	ErrStaleRead = cm.ErrStaleRead
)

// NewReplicationLeader builds the journal-streaming service over an open
// store; call Serve with a listener to accept followers.
func NewReplicationLeader(cfg ReplicationLeaderConfig) (*ReplicationLeader, error) {
	return repl.NewLeader(cfg)
}

// StartFollower connects to a leader and begins bootstrapping and tailing;
// reads are available once the first snapshot applies.
func StartFollower(cfg FollowerConfig) (*Follower, error) { return repl.StartFollower(cfg) }

// StartNetworkFaultInjector starts the chaos proxy in front of a leader
// address.
func StartNetworkFaultInjector(cfg NetworkFaultConfig) (*NetworkFaultInjector, error) {
	return repl.StartFaultInjector(cfg)
}

// ---- Fault tolerance (internal/cm fault injection, internal/disk health) ----

// Redundancy selects the server's block-protection scheme.
type Redundancy = cm.Redundancy

// Redundancy schemes: none (failures lose data), Section 6 offset
// mirroring, or hybrid parity groups.
const (
	RedundancyNone   = cm.RedundancyNone
	RedundancyMirror = cm.RedundancyMirror
	RedundancyParity = cm.RedundancyParity
)

// FaultInjector schedules deterministic disk failures, repairs, and
// transient per-read error rates against a running server.
type FaultInjector = cm.Injector

// NewFaultInjector creates a seeded fault injector; chain FailAt, RepairAt,
// and WithTransientErrorRate to build a drill schedule, then install it
// with Server.InstallFaults.
func NewFaultInjector(seed uint64) *FaultInjector { return cm.NewInjector(seed) }

// ---- Workloads (internal/workload) ----

// Object describes one continuous-media object.
type Object = workload.Object

// LibraryConfig controls synthetic library generation.
type LibraryConfig = workload.LibraryConfig

// DefaultLibraryConfig matches the paper's Section 5 experiment scale.
func DefaultLibraryConfig() LibraryConfig { return workload.DefaultLibraryConfig() }

// Library generates a reproducible object library.
func Library(cfg LibraryConfig) ([]Object, error) { return workload.Library(cfg) }

// NewZipf creates a Zipf popularity sampler.
func NewZipf(src Source, n int, s float64) (*workload.Zipf, error) {
	return workload.NewZipf(src, n, s)
}

// NewPoisson creates a Poisson arrival process.
func NewPoisson(src Source, rate float64) (*workload.Poisson, error) {
	return workload.NewPoisson(src, rate)
}

// ---- Extensions (internal/mirror, internal/hetero) ----

// Mirrored derives primary and offset-mirror locations (Section 6).
type Mirrored = mirror.Mirrored

// NewMirrored wraps a strategy with offset mirroring; a nil offset uses the
// paper's f(N) = N/2 example.
func NewMirrored(strat Strategy, offset mirror.OffsetFunc) (*Mirrored, error) {
	return mirror.New(strat, offset)
}

// Parity derives hybrid parity/mirror protection layouts (the Section 6
// future-work idea: parity where member disks are distinct, offset mirrors
// for colliding groups — single-disk failures never lose data, at 1+1/g to
// 2x storage).
type Parity = parity.Parity

// NewParity wraps a strategy with hybrid parity groups of size g.
func NewParity(strat Strategy, g int) (*Parity, error) { return parity.New(strat, g) }

// HeteroMapping maps homogeneous logical disks onto heterogeneous physical
// disks (Section 6).
type HeteroMapping = hetero.Mapping

// HeteroPhysical describes one heterogeneous physical disk.
type HeteroPhysical = hetero.Physical

// NewHeteroMapping builds a resource-proportional logical→physical mapping.
func NewHeteroMapping(physicals []HeteroPhysical) (*HeteroMapping, error) {
	return hetero.NewMapping(physicals)
}

// ---- Session traces (internal/trace) ----

// Trace is a replayable server session (admissions, viewer actions,
// scaling operations, round ticks).
type Trace = trace.Trace

// TraceResult summarizes a replay.
type TraceResult = trace.Result

// SessionConfig parameterizes synthetic session generation.
type SessionConfig = trace.SessionConfig

// DefaultSession is a moderate Zipf session with a mid-run scale-out.
func DefaultSession() SessionConfig { return trace.DefaultSession() }

// GenerateSession builds a reproducible synthetic session trace.
func GenerateSession(cfg SessionConfig) (*Trace, error) { return trace.GenerateSession(cfg) }

// ApplyTrace replays a trace against a freshly loaded server.
func ApplyTrace(srv *Server, tr *Trace) (*TraceResult, error) { return trace.Apply(srv, tr) }

// ---- Metrics (internal/stats) ----

// CoV returns the coefficient of variation of a load vector — the paper's
// Section 5 load-balance metric.
func CoV(loads []int) float64 { return stats.CoVInts(loads) }

// Unfairness returns (max/min - 1) of a load vector — the Section 4.3
// metric.
func Unfairness(loads []int) (float64, error) { return stats.UnfairnessInts(loads) }

// ---- Streaming data plane (internal/dataplane) ----

// PayloadManager owns per-disk segment stores under one root directory —
// the real bytes beneath the metadata simulator. Pass Manager.Factory() and
// SeededContent to Server.AttachPayloads to put byte-bearing stores under
// every disk; ingest, reorganization, and rebuild then move actual payloads.
type PayloadManager = dataplane.Manager

// PayloadOptions tunes segment-store sizing and durability.
type PayloadOptions = dataplane.Options

// StreamFrame is one decoded frame of a session's chunked stream: either a
// data frame carrying a block's bytes or the end frame carrying the close
// reason.
type StreamFrame = dataplane.Frame

// StreamCloseReason says why a session's stream ended.
type StreamCloseReason = dataplane.CloseReason

// Stream close reasons: played to completion, stopped (client or operator),
// or evicted for falling hopelessly behind the round pace.
const (
	StreamCloseDone    = dataplane.CloseDone
	StreamCloseStopped = dataplane.CloseStopped
	StreamCloseEvicted = dataplane.CloseEvicted
)

// StreamClientLocator is the client side of the snapshot+delta locator
// protocol: a local pure-function replica of the server's placement,
// refreshed by feed deltas instead of per-block server round trips.
type StreamClientLocator = dataplane.ClientLocator

// ErrStreamSnapshotRequired reports a client locator that has fallen off
// the bounded delta feed and must re-fetch the full snapshot.
var ErrStreamSnapshotRequired = dataplane.ErrSnapshotRequired

// NewPayloadManager opens (creating if needed) the per-disk segment stores
// rooted at dir.
func NewPayloadManager(dir string, opts PayloadOptions) (*PayloadManager, error) {
	return dataplane.NewManager(dir, opts)
}

// SeededContent returns the deterministic payload oracle's bytes for block
// index of an object with the given placement seed — what ingest writes is
// what this computes, so any layer can verify a delivered chunk.
func SeededContent(seed, index uint64, blockBytes int64) []byte {
	return dataplane.SeededContent(seed, index, blockBytes)
}

// VerifySeededContent reports whether data is byte-identical to the oracle
// bytes for (seed, index).
func VerifySeededContent(data []byte, seed, index uint64) bool {
	return dataplane.VerifySeededContent(data, seed, index)
}

// ReadStreamFrame decodes the next frame from a session stream body.
func ReadStreamFrame(br *bufio.Reader) (StreamFrame, error) { return dataplane.ReadFrame(br) }

// NewStreamClientLocator creates an empty client locator; install a
// baseline with ApplySnapshot, then fold in feed deltas with Apply.
func NewStreamClientLocator(factory SourceFactory) *StreamClientLocator {
	return dataplane.NewClientLocator(factory)
}

// ---- Horizontal sharding (internal/cluster) ----

// ClusterRouter fronts K independent shard gateways with one /v1 surface:
// object-addressed requests are proxied to the shard that jump-hash owns
// the object, aggregate endpoints fan out with per-shard deadlines, and
// shard add/drain operations migrate only the minimally moved key fraction
// — SCADDAR's RO1 property applied one level up, across arrays.
type ClusterRouter = cluster.Router

// ClusterRouterConfig tunes the router: manifest path, per-shard and
// topology-operation deadlines, and the health-probe interval.
type ClusterRouterConfig = cluster.RouterConfig

// ClusterShardHeader is the response header the router stamps with the ID
// of the shard that answered a proxied request.
const ClusterShardHeader = cluster.ShardHeader

// NewClusterRouter builds a router over the manifest at cfg.ManifestPath
// (or an empty topology) and starts its health prober.
func NewClusterRouter(cfg ClusterRouterConfig) (*ClusterRouter, error) { return cluster.NewRouter(cfg) }

// ClusterRouteSlot returns the routing slot that owns an object ID among
// `buckets` shards: SplitMix64 whitening followed by jump consistent hash,
// so growing K to K+1 relocates only ~1/(K+1) of the keys.
func ClusterRouteSlot(object, buckets int) int { return cluster.RouteSlot(object, buckets) }
