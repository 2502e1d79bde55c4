// Package cm implements the continuous-media server the SCADDAR paper
// targets: objects split into fixed-size blocks and scattered over a disk
// array by a pluggable placement strategy, round-based retrieval of one
// block per active stream per round, admission control against disk
// bandwidth, and online scaling operations that reorganize blocks while
// streams keep playing.
//
// The server is a discrete-time simulator: Tick() advances one scheduling
// round, serving every active stream and spending each disk's leftover
// bandwidth on any in-progress reorganization. The paper's claims — minimal
// movement, preserved load balance, one disk access per block — are all
// observable through this layer.
package cm

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"scaddar/internal/bufpool"
	"scaddar/internal/cache"
	"scaddar/internal/disk"
	"scaddar/internal/mirror"
	"scaddar/internal/obs"
	"scaddar/internal/parity"
	"scaddar/internal/placement"
	"scaddar/internal/reorg"
	"scaddar/internal/scaddar"
	"scaddar/internal/schedule"
	"scaddar/internal/workload"
)

// Config fixes the server's scheduling and hardware parameters.
type Config struct {
	// Round is the scheduling round length; every active stream receives
	// one block per round.
	Round time.Duration
	// Profile is the disk model used for every disk in the array.
	Profile disk.Profile
	// BlockBytes is the server-wide block size; objects must match it.
	BlockBytes int64
	// Utilization is the admission-control target in (0, 1]: streams are
	// admitted while activeStreams < Utilization * aggregate per-round
	// block capacity.
	Utilization float64
	// OverloadTarget, when non-zero, switches admission to the statistical
	// policy: admit streams while the probability that any disk's
	// per-round demand exceeds its capacity stays at or below this value
	// (see MaxStreamsStatistical). Utilization is ignored in that mode.
	OverloadTarget float64
	// GeneratorBits, when non-zero, enables Section 4.3 randomness-budget
	// tracking: every scaling operation is recorded against a Budget and
	// NeedsRedistribution reports when the Tolerance can no longer be
	// guaranteed. It must match the width of the placement strategy's
	// generators.
	GeneratorBits uint
	// Tolerance is the unfairness tolerance ε for the budget check; only
	// meaningful when GeneratorBits is non-zero.
	Tolerance float64
	// CacheBlocks, when non-zero, puts an LRU block buffer of that many
	// blocks in front of the disks: a stream's read that hits the cache
	// consumes no disk bandwidth (the interval-caching effect for close
	// followers on popular titles). Sized in blocks of BlockBytes.
	CacheBlocks int
	// MeasureRounds, when true, replays each round's per-disk requests
	// through a calibrated SCAN schedule (seek-distance model, elevator
	// ordering, head tracking) and counts rounds whose actual service time
	// exceeds the round length in Metrics.RoundOverruns. It validates the
	// fixed per-round block budget from inside the live simulation.
	MeasureRounds bool
	// Redundancy selects the live fault-tolerance scheme: none, Section 6
	// offset mirroring, or hybrid parity groups. It determines whether reads
	// on a failed disk can fail over and whether a replaced disk can be
	// rebuilt.
	Redundancy Redundancy
	// ParityGroup is the parity group size g for RedundancyParity; 0 means
	// the default of 4.
	ParityGroup int
}

// DefaultConfig returns a server configuration matching the paper's era:
// one-second rounds of 256 KiB blocks on Cheetah-class disks, admitting up
// to 80% of theoretical capacity.
func DefaultConfig() Config {
	return Config{
		Round:       time.Second,
		Profile:     disk.Cheetah73,
		BlockBytes:  256 << 10,
		Utilization: 0.8,
	}
}

// StreamState describes a stream's lifecycle.
type StreamState int

// Stream states.
const (
	// StreamPlaying streams are served one block per round.
	StreamPlaying StreamState = iota
	// StreamDone streams reached the end of their object.
	StreamDone
	// StreamStopped streams were terminated by the viewer.
	StreamStopped
	// StreamPaused streams hold an admission slot but are not served;
	// playback begins at ResumeStream. Opening paused lets a client
	// reserve capacity first and attach its consumer before any round
	// paces a block out — nothing is delivered to nobody.
	StreamPaused
)

// String names the stream state.
func (s StreamState) String() string {
	switch s {
	case StreamPlaying:
		return "playing"
	case StreamDone:
		return "done"
	case StreamStopped:
		return "stopped"
	case StreamPaused:
		return "paused"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Stream is one active playback session.
type Stream struct {
	// ID is the server-assigned stream identity.
	ID int
	// Object is the object being played.
	Object int
	// Position is the next block index to deliver.
	Position int
	// State is the lifecycle state.
	State StreamState
	// Hiccups counts rounds in which the block could not be served in
	// time because its disk was overloaded.
	Hiccups int
	// Served counts blocks delivered.
	Served int
}

// Metrics aggregates server activity.
type Metrics struct {
	// Rounds is the number of Tick calls.
	Rounds int
	// BlocksServed counts blocks delivered to streams.
	BlocksServed int
	// Hiccups counts stream-rounds that missed their deadline.
	Hiccups int
	// StreamsCompleted counts streams that played to the end.
	StreamsCompleted int
	// StreamsRejected counts admission-control rejections.
	StreamsRejected int
	// BlocksMigrated counts reorganization moves executed inside Tick.
	BlocksMigrated int
	// RoundOverruns counts disk-rounds whose measured SCAN service time
	// exceeded the round length (only tracked with Config.MeasureRounds).
	RoundOverruns int
	// BlocksIngested counts blocks written by recording sessions.
	BlocksIngested int
	// CacheHits counts stream reads served from the block buffer.
	CacheHits int
	// DiskFailures counts whole-disk failures injected or invoked.
	DiskFailures int
	// DiskRepairs counts replacement arrivals (rebuild starts).
	DiskRepairs int
	// DegradedReads counts stream reads served via mirror failover or
	// parity reconstruction instead of the block's home disk.
	DegradedReads int
	// UnrecoverableReads counts stream reads of blocks no redundancy could
	// serve; the stream skips the block after the attempt.
	UnrecoverableReads int
	// TransientReadErrors counts per-read transient faults injected on
	// otherwise healthy reads.
	TransientReadErrors int
	// FailoverReads counts the source-disk reads consumed serving degraded
	// reads — the failover bandwidth bill (a parity reconstruction charges
	// one read per surviving member plus the parity disk).
	FailoverReads int
	// BlocksRebuilt counts primary copies re-materialized onto replaced
	// disks (or onto migration destinations after a mid-reorg failure).
	BlocksRebuilt int
	// RebuildIOs counts every disk I/O (source reads + target writes) the
	// rebuild executor spent.
	RebuildIOs int
	// RebuildsCompleted counts disks whose rebuild drained fully.
	RebuildsCompleted int
	// RoundsToRepair accumulates, over completed rebuilds, the rounds from
	// repair arrival to rebuild completion.
	RoundsToRepair int
	// PayloadBytesServed counts real block bytes handed to the delivery
	// sink (only non-zero with a data plane attached).
	PayloadBytesServed int64
	// SessionsEvicted counts streams stopped because the delivery sink
	// reported the client hopelessly behind.
	SessionsEvicted int
}

// Server is the continuous-media server simulator.
type Server struct {
	cfg     Config
	strat   placement.Strategy
	array   *disk.Array
	objects map[int]workload.Object
	seedOf  map[uint64]int // object seed -> object ID, for block IDs
	streams map[int]*Stream
	nextSID int
	// playing and recording count the streams in StreamPlaying and the
	// ingests not yet Done, kept at the transitions (setState, ingest.go) so
	// the round driver's per-round questions cost no walk.
	playing, recording int
	metrics            Metrics

	// migration is the in-progress reorganization, if any.
	migration *reorg.Executor
	// pendingRemoval holds logical indices awaiting CompleteScaleDown, and
	// removalPreOf translates post-removal logical indices (what the
	// already-updated strategy reports) back to the pre-removal numbering
	// the physical array still uses while the drain is in flight.
	pendingRemoval []int
	removalPreOf   []int
	// budget tracks the Section 4.3 randomness budget when configured.
	budget *scaddar.Budget
	// seek and heads implement MeasureRounds: the calibrated seek model
	// and the per-physical-disk head positions.
	seek  *schedule.SeekModel
	heads map[int]int64
	// ingests holds recording sessions (completed ones are kept for
	// inspection).
	ingests []*Ingest
	// blockCache is the optional LRU block buffer.
	blockCache *cache.LRU
	// faults is the installed fault injector, if any.
	faults *Injector
	// mirrored resolves redundant copy locations for RedundancyMirror.
	mirrored *mirror.Mirrored
	// par resolves redundant copy locations for RedundancyParity.
	par *parity.Parity
	// rebuild is the online rebuild executor (created on first fault work).
	rebuild *rebuilder
	// lost records blocks that are permanently unrecoverable.
	lost map[disk.BlockID]bool
	// events is the optional durable-event sink and extraSinks the
	// non-durable observers teed behind it (see events.go).
	events     EventSink
	extraSinks []EventSink
	// catalog is the resolved read-path catalogue BuildSnapshot keeps and
	// every snapshot shares (snapshot.go); nil once the object set changed.
	catalog *placement.Catalog
	// placementEpoch counts epoch events (IsEpochEvent) emitted so far: it
	// advances when a scaling operation starts or finishes, never mid-drain.
	// Snapshots carry it so remote readers can detect that two answers came
	// from different placement generations (see LocatorSnapshot.Epoch).
	placementEpoch uint64
	// payloads, content, and delivery wire the real data plane: per-disk
	// byte stores, the deterministic content oracle, and the sink served
	// bytes are handed to (see dataplane.go).
	payloads disk.PayloadFactory
	content  ContentFunc
	delivery DeliverySink
	// obsv is the optional metrics observer and trace the optional span ring
	// (see observe.go).
	obsv  *Observer
	trace *obs.Ring

	// roundPlan collects the current round's store-backed reads in stream
	// order; the batch* slices are the scheduler's reusable scratch
	// (batchread.go). All are owner-goroutine state reused across rounds so
	// the steady-state round performs no per-stream allocation.
	roundPlan   []plannedRead
	batchReqs   []disk.BlockRead
	batchCounts []int
	batchStarts []int
	batchStores []disk.PayloadStore
	batchGroups []readGroup
	// moveRead is movePayload's one-slot read request (dataplane.go), kept
	// here so a migrated block allocates nothing for it.
	moveRead [1]disk.BlockRead
	// inBatchRead suppresses the store-level injected-fault hook while the
	// parallel batch executes: batched reads pre-roll their faults at plan
	// time on the owner goroutine (serveRead), keeping the injector's draw
	// sequence deterministic regardless of batch scheduling.
	inBatchRead atomic.Bool
}

// NewServer creates a server over a fresh homogeneous array sized to the
// strategy's current disk count.
func NewServer(cfg Config, strat placement.Strategy) (*Server, error) {
	if cfg.Round <= 0 {
		return nil, fmt.Errorf("cm: round length %v must be positive", cfg.Round)
	}
	if cfg.BlockBytes <= 0 {
		return nil, fmt.Errorf("cm: block size %d must be positive", cfg.BlockBytes)
	}
	if cfg.Utilization <= 0 || cfg.Utilization > 1 {
		return nil, fmt.Errorf("cm: utilization %g outside (0,1]", cfg.Utilization)
	}
	if cfg.OverloadTarget < 0 || cfg.OverloadTarget >= 1 {
		return nil, fmt.Errorf("cm: overload target %g outside [0,1)", cfg.OverloadTarget)
	}
	if strat == nil {
		return nil, fmt.Errorf("cm: server needs a placement strategy")
	}
	if cfg.Profile.BlocksPerRound(cfg.Round, cfg.BlockBytes) < 1 {
		return nil, fmt.Errorf("cm: disk %s cannot serve a single %d-byte block per %v round",
			cfg.Profile.Name, cfg.BlockBytes, cfg.Round)
	}
	array, err := disk.NewArray(strat.N(), cfg.Profile)
	if err != nil {
		return nil, err
	}
	var budget *scaddar.Budget
	if cfg.GeneratorBits > 0 {
		if cfg.Tolerance <= 0 || cfg.Tolerance >= 1 {
			return nil, fmt.Errorf("cm: tolerance %g outside (0,1) with budget tracking enabled", cfg.Tolerance)
		}
		budget, err = scaddar.NewBudget(cfg.GeneratorBits, strat.N())
		if err != nil {
			return nil, err
		}
	}
	var seek *schedule.SeekModel
	if cfg.MeasureRounds {
		seek, err = schedule.Calibrate(cfg.Profile, cfg.BlockBytes)
		if err != nil {
			return nil, err
		}
	}
	blockCache, err := cache.New(cfg.CacheBlocks)
	if err != nil {
		return nil, err
	}
	var mirrored *mirror.Mirrored
	var par *parity.Parity
	switch cfg.Redundancy {
	case RedundancyNone:
	case RedundancyMirror:
		mirrored, err = mirror.New(strat, nil) // the paper's f(N) = N/2
		if err != nil {
			return nil, err
		}
	case RedundancyParity:
		g := cfg.ParityGroup
		if g == 0 {
			g = 4
		}
		par, err = parity.New(strat, g)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("cm: unknown redundancy scheme %d", cfg.Redundancy)
	}
	return &Server{
		cfg:        cfg,
		strat:      strat,
		array:      array,
		objects:    make(map[int]workload.Object),
		seedOf:     make(map[uint64]int),
		streams:    make(map[int]*Stream),
		budget:     budget,
		seek:       seek,
		heads:      make(map[int]int64),
		blockCache: blockCache,
		mirrored:   mirrored,
		par:        par,
		lost:       make(map[disk.BlockID]bool),
	}, nil
}

// Config returns the server configuration.
func (s *Server) Config() Config { return s.cfg }

// Strategy returns the placement strategy in use.
func (s *Server) Strategy() placement.Strategy { return s.strat }

// Array exposes the physical disk array.
func (s *Server) Array() *disk.Array { return s.array }

// Metrics returns a copy of the accumulated metrics.
func (s *Server) Metrics() Metrics { return s.metrics }

// N returns the current number of disks.
func (s *Server) N() int { return s.array.N() }

// Reorganizing reports whether a scaling operation is still migrating
// blocks.
func (s *Server) Reorganizing() bool { return s.MigrationRemaining() > 0 }

// blockID packs (object, index) into a disk-layer block identity.
func blockID(object int, index uint64) disk.BlockID {
	return disk.BlockID(uint64(object)<<40 | index)
}

// blockIDOf resolves a placement reference through the seed table.
func (s *Server) blockIDOf(b placement.BlockRef) disk.BlockID {
	obj, ok := s.seedOf[b.Seed]
	if !ok {
		panic(fmt.Sprintf("cm: block reference with unknown seed %d", b.Seed))
	}
	return blockID(obj, b.Index)
}

// objectLayout resolves the logical disk of every block of an object in one
// sweep, going through placement.Snapshot so strategies with a bulk path
// (compiled and parallel for SCADDAR) resolve the whole object at once.
func objectLayout(strat placement.Strategy, obj workload.Object) []int {
	blocks := make([]placement.BlockRef, obj.Blocks)
	for i := range blocks {
		blocks[i] = placement.BlockRef{Seed: obj.Seed, Index: uint64(i)}
	}
	return placement.Snapshot(strat, blocks)
}

// listObject enters an object in the catalog. With RemoveObject it is the
// only writer of the object set, and like it drops the resolved read-path
// catalogue, which the next BuildSnapshot rebuilds.
func (s *Server) listObject(obj workload.Object) {
	s.objects[obj.ID] = obj
	s.seedOf[obj.Seed] = obj.ID
	s.catalog = nil
}

// AddObject loads an object's blocks onto the array according to the
// placement strategy. Objects must have distinct IDs and seeds and match
// the server block size.
func (s *Server) AddObject(obj workload.Object) error {
	if s.Reorganizing() {
		return fmt.Errorf("%w: cannot add objects during reorganization", ErrBusy)
	}
	if s.Degraded() {
		return fmt.Errorf("%w: cannot add objects while the array is degraded", ErrBusy)
	}
	if _, dup := s.objects[obj.ID]; dup {
		return fmt.Errorf("cm: duplicate object ID %d", obj.ID)
	}
	if _, dup := s.seedOf[obj.Seed]; dup {
		return fmt.Errorf("cm: duplicate object seed %d", obj.Seed)
	}
	for _, in := range s.ingests {
		if !in.Done && in.Object.ID == obj.ID {
			return fmt.Errorf("cm: object %d is being ingested", obj.ID)
		}
	}
	if obj.Blocks < 1 {
		return fmt.Errorf("cm: object %d has no blocks", obj.ID)
	}
	if obj.BlockBytes != s.cfg.BlockBytes {
		return fmt.Errorf("cm: object %d block size %d != server block size %d",
			obj.ID, obj.BlockBytes, s.cfg.BlockBytes)
	}
	if obj.ID < 0 || obj.ID >= 1<<24 || uint64(obj.Blocks) >= 1<<40 {
		return fmt.Errorf("cm: object %d outside addressable range", obj.ID)
	}
	// Reserve the identity before the block loop so the payload oracle can
	// resolve the object's seed for the bytes being written.
	s.listObject(obj)
	for i, logical := range objectLayout(s.strat, obj) {
		d, err := s.array.Disk(logical)
		if err != nil {
			return err
		}
		if err := d.Store(blockID(obj.ID, uint64(i))); err != nil {
			return err
		}
		if err := s.putPayload(d, blockID(obj.ID, uint64(i))); err != nil {
			return err
		}
	}
	s.emit(Event{Kind: EventObjectAdded, Object: obj})
	return nil
}

// RemoveObject deletes an object and its blocks.
func (s *Server) RemoveObject(id int) error {
	if s.Reorganizing() {
		return fmt.Errorf("%w: cannot remove objects during reorganization", ErrBusy)
	}
	if s.Degraded() {
		return fmt.Errorf("%w: cannot remove objects while the array is degraded", ErrBusy)
	}
	obj, ok := s.objects[id]
	if !ok {
		return fmt.Errorf("%w: object %d", ErrUnknownObject, id)
	}
	for _, st := range s.streams {
		if st.Object == id && st.State == StreamPlaying {
			return fmt.Errorf("%w: object %d has active streams", ErrBusy, id)
		}
	}
	for i, logical := range objectLayout(s.strat, obj) {
		d, err := s.array.Disk(logical)
		if err != nil {
			return err
		}
		if err := d.Remove(blockID(obj.ID, uint64(i))); err != nil {
			return err
		}
		if err := s.deletePayload(d, blockID(obj.ID, uint64(i))); err != nil {
			return err
		}
		s.blockCache.Remove(blockID(obj.ID, uint64(i)))
	}
	delete(s.objects, id)
	delete(s.seedOf, obj.Seed)
	s.catalog = nil
	s.emit(Event{Kind: EventObjectRemoved, ObjectID: id})
	return nil
}

// Catalog returns every loaded object sorted by ID — the full metadata a
// peer needs to recreate the catalog elsewhere (cluster migration ships
// objects between shards with it).
func (s *Server) Catalog() []workload.Object {
	out := make([]workload.Object, 0, len(s.objects))
	for _, obj := range s.objects {
		out = append(out, obj)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// StopObjectStreams stops every playing stream on the given object and
// returns how many it stopped. It is the forced-eviction prologue to
// RemoveObject: a cluster migration moves the object's home shard out from
// under its viewers, who re-open through the router and land on the new
// home.
func (s *Server) StopObjectStreams(object int) int {
	n := 0
	for _, st := range s.streams {
		if st.Object == object && st.State == StreamPlaying {
			s.setState(st, StreamStopped)
			n++
		}
	}
	return n
}

// Object returns an object by ID.
func (s *Server) Object(id int) (workload.Object, error) {
	obj, ok := s.objects[id]
	if !ok {
		return workload.Object{}, fmt.Errorf("%w: object %d", ErrUnknownObject, id)
	}
	return obj, nil
}

// Objects returns the number of loaded objects.
func (s *Server) Objects() int { return len(s.objects) }

// TotalBlocks returns the number of blocks stored across the array.
func (s *Server) TotalBlocks() int { return s.array.TotalBlocks() }

// eachBlock is the planners' reorg.Source: every loaded block, objects in
// ascending ID order — s.objects is a map, the planner walks the catalogue
// twice, and in this order a plan's move list repeats from run to run.
func (s *Server) eachBlock(yield func(placement.BlockRef)) {
	for _, obj := range s.Catalog() {
		for i := 0; i < obj.Blocks; i++ {
			yield(placement.BlockRef{Seed: obj.Seed, Index: uint64(i)})
		}
	}
}

// locate returns the logical disk a block must be read from right now:
// normally the strategy's answer, but while a reorganization is in flight a
// block whose move is still pending is served from its pre-operation home,
// and during a scale-down drain the strategy's post-removal numbering is
// translated back to the pre-removal numbering the physical array still
// uses.
func (s *Server) locate(b placement.BlockRef) int {
	if s.migration != nil {
		if from, pending := s.migration.PendingSource(b); pending {
			return from
		}
		if s.removalPreOf != nil {
			return s.removalPreOf[s.strat.Disk(b)]
		}
	}
	return s.strat.Disk(b)
}

// Lookup returns the disk currently holding a block, verifying that the
// placement layer and the physical inventory agree — the paper's AO1
// one-access guarantee depends on this invariant. It is correct even while
// a reorganization is in flight.
func (s *Server) Lookup(object int, index int) (*disk.Disk, error) {
	obj, ok := s.objects[object]
	if !ok {
		return nil, fmt.Errorf("%w: object %d", ErrUnknownObject, object)
	}
	if index < 0 || index >= obj.Blocks {
		return nil, fmt.Errorf("%w: object %d has no block %d", ErrBlockOutOfRange, object, index)
	}
	ref := placement.BlockRef{Seed: obj.Seed, Index: uint64(index)}
	logical := s.locate(ref)
	d, err := s.array.Disk(logical)
	if err != nil {
		return nil, err
	}
	if !d.Has(blockID(object, uint64(index))) {
		if s.blockDegraded(ref, blockID(object, uint64(index)), d) {
			return nil, fmt.Errorf("%w: block %d/%d: disk %d is %s and the copy is not yet rebuilt",
				ErrDegradedRead, object, index, d.ID(), d.Health())
		}
		return nil, fmt.Errorf("cm: block %d/%d not on disk %d where placement expects it",
			object, index, d.ID())
	}
	return d, nil
}

// blockDegraded reports whether a block's absence from its home disk is an
// expected degraded-mode condition (failure, pending rebuild, permanent
// loss) rather than an integrity violation.
func (s *Server) blockDegraded(ref placement.BlockRef, bid disk.BlockID, d *disk.Disk) bool {
	return s.lost[bid] ||
		s.rebuildPending(rebuildKey{kind: rebuildPrimary, ref: ref}) ||
		d.Health() != disk.Healthy
}

// diskCapacityPerRound is the block budget of one round for the server's
// configured (baseline) profile.
func (s *Server) diskCapacityPerRound() int {
	return s.cfg.Profile.BlocksPerRound(s.cfg.Round, s.cfg.BlockBytes)
}

// capacities returns the per-logical-disk block budgets of one round,
// honoring per-disk profiles in mixed-generation arrays.
func (s *Server) capacities() ([]int, error) {
	out := make([]int, s.N())
	for i := range out {
		d, err := s.array.Disk(i)
		if err != nil {
			return nil, err
		}
		out[i] = d.Profile().BlocksPerRound(s.cfg.Round, s.cfg.BlockBytes)
	}
	return out, nil
}

// capacityStreams is the admission limit on simultaneous streams: the
// statistical limit when an overload target is configured, the fixed
// utilization fraction otherwise. Uniform random placement spreads demand
// evenly over logical disks, so in a mixed-generation array the WEAKEST
// disk binds: admission uses N times the minimum per-disk capacity (this
// is exactly the inefficiency the Section 6 logical mapping removes; see
// experiment E11).
func (s *Server) capacityStreams() int {
	caps, err := s.capacities()
	if err != nil || len(caps) == 0 {
		return 0
	}
	minCap := caps[0]
	for _, c := range caps[1:] {
		if c < minCap {
			minCap = c
		}
	}
	if s.cfg.OverloadTarget > 0 {
		limit, err := MaxStreamsStatistical(s.N(), minCap, s.cfg.OverloadTarget)
		if err != nil {
			return 0 // degenerate configuration: admit nothing
		}
		return limit
	}
	return int(s.cfg.Utilization * float64(s.N()*minCap))
}

// ActiveStreams returns the number of playing streams.
func (s *Server) ActiveStreams() int { return s.playing }

// setState moves a stream to a new lifecycle state, keeping the playing
// count: every assignment to Stream.State goes through it.
func (s *Server) setState(st *Stream, to StreamState) {
	if st.State == StreamPlaying {
		s.playing--
	}
	if to == StreamPlaying {
		s.playing++
	}
	st.State = to
}

// StartStream admits a new playback session for an object, or rejects it if
// the server is at its admission limit. The stream plays from the next
// round on, attached consumer or not.
func (s *Server) StartStream(object int) (*Stream, error) {
	return s.startStream(object, StreamPlaying)
}

// StartStreamPaused admits a session that holds its admission slot but is
// not served until ResumeStream — the client reserves capacity first and
// connects its consumer before the pacer delivers anything.
func (s *Server) StartStreamPaused(object int) (*Stream, error) {
	return s.startStream(object, StreamPaused)
}

func (s *Server) startStream(object int, state StreamState) (*Stream, error) {
	if _, ok := s.objects[object]; !ok {
		return nil, fmt.Errorf("%w: object %d", ErrUnknownObject, object)
	}
	// Paused streams count against admission: the slot is reserved the
	// moment the session exists, not when playback starts.
	if s.admittedStreams() >= s.capacityStreams() {
		s.metrics.StreamsRejected++
		return nil, fmt.Errorf("%w: object %d (%d active, capacity %d)",
			ErrAdmissionRejected, object, s.admittedStreams(), s.capacityStreams())
	}
	st := &Stream{ID: s.nextSID, Object: object, State: StreamPaused}
	s.setState(st, state) // counted when admitted playing
	s.nextSID++
	s.streams[st.ID] = st
	return st, nil
}

// admittedStreams counts the sessions holding admission slots: playing
// streams plus paused ones whose playback has not started yet.
func (s *Server) admittedStreams() int {
	n := 0
	for _, st := range s.streams {
		if st.State == StreamPlaying || st.State == StreamPaused {
			n++
		}
	}
	return n
}

// ResumeStream starts playback of a paused stream; resuming a stream that
// is already playing is a no-op. Finished streams cannot be resumed.
func (s *Server) ResumeStream(id int) error {
	st, ok := s.streams[id]
	if !ok {
		return fmt.Errorf("%w: stream %d", ErrUnknownStream, id)
	}
	switch st.State {
	case StreamPaused:
		s.setState(st, StreamPlaying)
	case StreamPlaying:
	default:
		return fmt.Errorf("cannot resume stream %d: %s", id, st.State)
	}
	return nil
}

// StopStream terminates a stream (viewer pressed stop).
func (s *Server) StopStream(id int) error {
	st, ok := s.streams[id]
	if !ok {
		return fmt.Errorf("%w: stream %d", ErrUnknownStream, id)
	}
	if st.State == StreamPlaying || st.State == StreamPaused {
		s.setState(st, StreamStopped)
	}
	return nil
}

// SeekStream repositions a stream (VCR jump).
func (s *Server) SeekStream(id, position int) error {
	st, ok := s.streams[id]
	if !ok {
		return fmt.Errorf("%w: stream %d", ErrUnknownStream, id)
	}
	obj := s.objects[st.Object]
	if position < 0 || position >= obj.Blocks {
		return fmt.Errorf("%w: seek position %d outside object %d", ErrBlockOutOfRange, position, st.Object)
	}
	st.Position = position
	return nil
}

// Stream returns a stream by ID.
func (s *Server) Stream(id int) (*Stream, error) {
	st, ok := s.streams[id]
	if !ok {
		return nil, fmt.Errorf("%w: stream %d", ErrUnknownStream, id)
	}
	return st, nil
}

// readOutcome is the result of one stream read attempt.
type readOutcome int

const (
	// readServed: the block was delivered (directly or via failover).
	readServed readOutcome = iota
	// readHiccup: the block exists but could not be served this round
	// (budget exhausted, or a transient error with no failover path); the
	// stream stalls and retries.
	readHiccup
	// readLost: no copy of the block is available; the stream skips it.
	readLost
	// readPlanned: the block is served from a payload store; the read was
	// queued for the per-disk parallel batch and the stream's delivery
	// happens after the batch executes (see batchread.go).
	readPlanned
)

// serveRead attempts one block read against the current array state: the
// home disk when it is healthy (or rebuilding and already restored), with a
// transient-error roll; otherwise failover to the mirror copy or parity
// reconstruction, charging one read on every source disk. used is
// decremented-into per-disk round accounting shared with ingest and the
// spare pool. With a payload store on the serving disk the file I/O is not
// performed here: the read is queued on s.roundPlan (readPlanned) and
// executed by the per-disk parallel batch after every stream has planned
// (see batchread.go). Transient faults for those reads are pre-rolled here,
// on the owner goroutine in stream order, so the injector's draw sequence
// stays deterministic regardless of how the batch parallelizes.
func (s *Server) serveRead(st *Stream, ref placement.BlockRef, bid disk.BlockID,
	used, caps []int, roundReqs map[int][]schedule.Request) (readOutcome, error) {
	if s.lost[bid] {
		return readLost, nil
	}
	logical := s.locate(ref)
	d, err := s.array.Disk(logical)
	if err != nil {
		return 0, err
	}
	present := d.Health() != disk.Failed && d.Has(bid)
	if !present {
		// Absent blocks are legal only in degraded mode: the home disk
		// failed, or the block awaits re-materialization.
		if d.Health() == disk.Healthy && !s.rebuildPending(rebuildKey{kind: rebuildPrimary, ref: ref}) {
			return 0, fmt.Errorf("cm: stream %d: block %d/%d missing from disk %d",
				st.ID, st.Object, st.Position, d.ID())
		}
		return s.failover(ref, bid, used, caps, false)
	}
	ps := d.Payload()
	if ps == nil && s.faults != nil && s.faults.transientError() {
		// Pure metadata simulation: roll the transient fault here.
		s.metrics.TransientReadErrors++
		// The failed attempt still occupied the disk for a service slot.
		if used[logical] < caps[logical] {
			used[logical]++
			d.RecordFailoverRead()
		}
		return s.failover(ref, bid, used, caps, true)
	}
	if used[logical] >= caps[logical] {
		return readHiccup, nil
	}
	if !d.Read(bid) {
		return 0, fmt.Errorf("cm: stream %d: block %d/%d missing from disk %d",
			st.ID, st.Object, st.Position, d.ID())
	}
	if ps != nil && s.faults != nil && s.faults.transientError() {
		// Pre-rolled transient fault for a store-backed read: the attempt
		// consumed the slot; recover via redundancy. (The store-level hook
		// is suppressed during the batch so the roll happens exactly once.)
		s.metrics.TransientReadErrors++
		used[logical]++
		d.RecordFailoverRead()
		return s.failover(ref, bid, used, caps, true)
	}
	s.blockCache.Put(bid)
	if roundReqs != nil {
		lba, err := schedule.LBAFor(bid, int64(s.cfg.Profile.CapacityBlocks(s.cfg.BlockBytes)))
		if err != nil {
			return 0, err
		}
		roundReqs[d.ID()] = append(roundReqs[d.ID()], schedule.Request{Block: bid, LBA: lba})
	}
	used[logical]++
	if ps != nil {
		obj := s.objects[st.Object]
		s.roundPlan = append(s.roundPlan, plannedRead{
			st: st, blocks: obj.Blocks, ref: ref, bid: bid, logical: logical, d: d,
		})
		return readPlanned, nil
	}
	return readServed, nil
}

// failover serves a read from redundant copies. dataIntact marks transient
// failures of a still-present block: those never report readLost — the data
// survives, so a blocked failover just retries next round. Served bytes are
// re-materialized from the content oracle inside deliver: redundant copies
// are virtual (computable), so reconstruction produces exactly the bytes
// ingest wrote — and streams nobody listens to skip the materialization
// entirely.
func (s *Server) failover(ref placement.BlockRef, bid disk.BlockID,
	used, caps []int, dataIntact bool) (readOutcome, error) {
	if s.cfg.Redundancy == RedundancyNone {
		if dataIntact {
			return readHiccup, nil
		}
		return readLost, nil
	}
	sources, ok, err := s.failoverSources(ref)
	if err != nil {
		return 0, err
	}
	if !ok {
		if dataIntact {
			return readHiccup, nil
		}
		return readLost, nil
	}
	// All-or-nothing budget: a parity reconstruction needs every source in
	// the same round. Degraded reads that overflow a round hiccup and retry.
	need := make(map[int]int, len(sources))
	for _, src := range sources {
		need[src]++
	}
	for src, n := range need {
		if used[src]+n > caps[src] {
			return readHiccup, nil
		}
	}
	for _, src := range sources {
		used[src]++
		d, err := s.array.Disk(src)
		if err != nil {
			return 0, err
		}
		d.RecordFailoverRead()
	}
	s.metrics.DegradedReads++
	s.metrics.FailoverReads += len(sources)
	s.blockCache.Put(bid)
	return readServed, nil
}

// Tick advances one scheduling round: scheduled fault events fire first;
// then every playing stream requests its next block from the disk the
// placement strategy names — failing over to redundancy when that disk is
// down — disks serve up to their per-round capacity and excess requests
// hiccup (the stream stalls one round). Leftover per-disk capacity then
// goes first to any in-progress rebuild (restoring redundancy outranks
// rebalancing) and then to any in-progress reorganization.
func (s *Server) Tick() error {
	s.metrics.Rounds++
	prevMigrated, prevRebuildIOs := s.metrics.BlocksMigrated, s.metrics.RebuildIOs
	if err := s.fireFaults(); err != nil {
		return err
	}
	s.array.ResetRounds()
	caps, err := s.capacities()
	if err != nil {
		return err
	}
	// Failed disks serve nothing this round.
	for i := range caps {
		d, err := s.array.Disk(i)
		if err != nil {
			return err
		}
		if d.Health() == disk.Failed {
			caps[i] = 0
		}
	}
	used := make([]int, s.N())

	// Serve streams in ID order so the simulation is deterministic.
	ids := make([]int, 0, len(s.streams))
	for id := range s.streams {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var roundReqs map[int][]schedule.Request
	if s.seek != nil {
		roundReqs = make(map[int][]schedule.Request)
	}
	// Phase 1 — plan: every playing stream resolves its block, charges the
	// round budget, and either completes immediately (cache hit, failover,
	// hiccup, metadata-only serve) or queues a store-backed read on the
	// round plan. No segment-file I/O happens in this loop.
	s.roundPlan = s.roundPlan[:0]
	for _, id := range ids {
		st := s.streams[id]
		if st.State != StreamPlaying {
			continue
		}
		obj := s.objects[st.Object]
		bid := blockID(st.Object, uint64(st.Position))
		// A block-buffer hit serves the stream without touching a disk (the
		// buffer is RAM: it survives disk failures; its bytes come from the
		// oracle inside deliver).
		if s.blockCache.Get(bid) {
			s.metrics.CacheHits++
			s.deliver(st, bufpool.Payload{})
			if st.State == StreamPlaying {
				s.advanceStream(st, obj.Blocks, true)
			}
			s.notifyClosed(st)
			continue
		}
		ref := placement.BlockRef{Seed: obj.Seed, Index: uint64(st.Position)}
		outcome, err := s.serveRead(st, ref, bid, used, caps, roundReqs)
		if err != nil {
			return err
		}
		switch outcome {
		case readServed:
			s.deliver(st, bufpool.Payload{})
			if st.State == StreamPlaying {
				s.advanceStream(st, obj.Blocks, true)
			}
		case readHiccup:
			st.Hiccups++
			s.metrics.Hiccups++
		case readLost:
			// No copy survives: the viewer sees a glitch and playback
			// skips the block rather than stalling forever.
			s.metrics.UnrecoverableReads++
			s.advanceStream(st, obj.Blocks, false)
		case readPlanned:
			// Deferred to the batch below; notifyClosed fires after
			// delivery in phase 3.
		}
		s.notifyClosed(st)
	}

	// Phases 2+3 — execute the planned reads as per-disk parallel batches,
	// then deliver the results in stream-ID order (see batchread.go).
	if len(s.roundPlan) > 0 {
		if err := s.runBatchedReads(used, caps); err != nil {
			return err
		}
	}

	// Writes of in-progress recordings share the round's leftover budget.
	if err := s.stepIngests(used, caps); err != nil {
		return err
	}

	// Replay each disk's round through the calibrated SCAN schedule. The
	// measurement covers stream reads (the traffic the admission budget
	// models); migration I/O is bounded separately by the spare-capacity
	// accounting below.
	for id, reqs := range roundReqs {
		head := s.heads[id]
		ordered, err := schedule.Order(schedule.SCAN, reqs, head)
		if err != nil {
			return err
		}
		cost := schedule.ServiceTime(s.seek, s.cfg.Profile, s.cfg.BlockBytes, ordered, head, schedule.SCAN)
		if cost.Total > s.cfg.Round {
			s.metrics.RoundOverruns++
		}
		s.heads[id] = cost.Head
	}

	// Spend leftover bandwidth: rebuild first, then reorganization.
	needSpare := s.RebuildRemaining() > 0 || s.Reorganizing()
	if needSpare {
		spare := make([]int, s.N())
		for i := range spare {
			spare[i] = caps[i] - used[i]
			if spare[i] < 0 {
				spare[i] = 0
			}
		}
		if err := s.stepRebuild(spare); err != nil {
			return err
		}
		if s.Reorganizing() {
			moved, err := s.migration.Step(spare)
			if err != nil {
				return err
			}
			s.metrics.BlocksMigrated += moved
			if refs := s.migration.TakeMoved(); len(refs) > 0 {
				poss := make([]BlockPos, 0, len(refs))
				for _, b := range refs {
					object, ok := s.objectOfSeed(b.Seed)
					if !ok {
						continue // never journal a forged object ID
					}
					poss = append(poss, BlockPos{Object: object, Index: b.Index})
				}
				if len(poss) > 0 {
					s.emit(Event{Kind: EventBlocksMigrated, Moves: poss})
				}
			}
		}
	}
	if s.obsv != nil {
		s.obsv.observeRound(s, used,
			s.metrics.BlocksMigrated-prevMigrated, s.metrics.RebuildIOs-prevRebuildIOs)
	}
	return nil
}

// advanceStream moves a stream past its current block, counting it as
// served (delivered) or skipped (unrecoverable).
func (s *Server) advanceStream(st *Stream, blocks int, delivered bool) {
	if delivered {
		st.Served++
		s.metrics.BlocksServed++
	}
	st.Position++
	if st.Position >= blocks {
		s.setState(st, StreamDone)
		s.metrics.StreamsCompleted++
	}
}

// reorgIdle is the precondition every reorganization shares: no recording,
// no migration in flight, a healthy array, and no scale-down awaiting its
// CompleteScaleDown.
func (s *Server) reorgIdle() error {
	switch {
	case s.Ingesting():
		return fmt.Errorf("%w: cannot scale while a recording is in progress", ErrBusy)
	case s.Reorganizing():
		return fmt.Errorf("%w: a reorganization is already in progress", ErrBusy)
	case s.Degraded():
		return fmt.Errorf("%w: cannot scale while the array is degraded", ErrBusy)
	case len(s.pendingRemoval) > 0:
		return fmt.Errorf("%w: a scale-down awaits completion", ErrBusy)
	}
	return nil
}

// startMigration is the tail every reorganization shares: install the plan's
// executor, charge the randomness budget for the strategy's new disk count
// (a complete redistribution resets it instead), report what the operation
// cost since planning began, and journal the start event — last, so sinks
// observe the server with the migration in place.
func (s *Server) startMigration(begun time.Time, plan *reorg.Plan, ev Event) (*reorg.Plan, error) {
	exec, err := s.newExecutor(plan)
	if err != nil {
		return nil, err
	}
	s.migration = exec
	if s.budget != nil {
		account := s.budget.Record
		if ev.Kind == EventRedistributeStarted {
			account = s.budget.Reset
		}
		if err := account(s.strat.N()); err != nil {
			return nil, err
		}
	}
	if s.obsv != nil {
		s.obsv.planSeconds.ObserveDuration(time.Since(begun))
		s.obsv.planMoves.Add(uint64(len(plan.Moves)))
	}
	s.emit(ev)
	return plan, nil
}

// ScaleUp attaches count new disks and starts the minimal reorganization
// that rebalances onto them. The migration runs inside subsequent Tick
// calls using spare bandwidth; the new disks serve reads immediately for
// blocks already moved. The returned plan describes the migration.
func (s *Server) ScaleUp(count int) (*reorg.Plan, error) {
	return s.scaleUp(count, nil)
}

// ScaleUpProfile attaches count new disks of a possibly different
// generation (profile) and starts the minimal rebalancing migration, the
// Section 1 scenario of "adding newer generation disks (higher bandwidth
// and more capacity)". Placement stays uniform across logical disks, so a
// faster disk in a mixed array is simply underutilized; carving it into
// multiple logical disks via the hetero mapping is how its full bandwidth
// is exploited (experiment E11 quantifies the difference).
func (s *Server) ScaleUpProfile(count int, profile disk.Profile) (*reorg.Plan, error) {
	return s.scaleUp(count, &profile)
}

// scaleUp is ScaleUp with the array's own profile (nil) or ScaleUpProfile
// with a given one; the journaled event carries the profile only when the
// caller named one.
func (s *Server) scaleUp(count int, profile *disk.Profile) (*reorg.Plan, error) {
	if err := s.reorgIdle(); err != nil {
		return nil, err
	}
	added := s.cfg.Profile
	if profile != nil {
		if profile.BlocksPerRound(s.cfg.Round, s.cfg.BlockBytes) < 1 {
			return nil, fmt.Errorf("cm: disk %s cannot serve a single %d-byte block per %v round",
				profile.Name, s.cfg.BlockBytes, s.cfg.Round)
		}
		added = *profile
	}
	start := time.Now()
	plan, err := reorg.PlanAddFrom(s.strat, s.eachBlock, count)
	if err != nil {
		return nil, err
	}
	if _, err := s.array.Add(count, added); err != nil {
		return nil, err
	}
	if err := s.attachAddedPayloads(s.N() - count); err != nil {
		return nil, err
	}
	return s.startMigration(start, plan, Event{Kind: EventScaleUpStarted, Count: count, Profile: profile})
}

// ScaleDown starts draining the disks at the given logical indices. Blocks
// migrate off them inside subsequent Tick calls; once the migration is done,
// CompleteScaleDown detaches the empty disks. Streams keep reading from the
// doomed disks until their blocks have moved.
func (s *Server) ScaleDown(indices ...int) (*reorg.Plan, error) {
	if err := s.reorgIdle(); err != nil {
		return nil, err
	}
	start := time.Now()
	plan, err := reorg.PlanRemoveFrom(s.strat, s.eachBlock, indices...)
	if err != nil {
		return nil, err
	}
	s.pendingRemoval = append([]int(nil), indices...)
	s.removalPreOf = plan.PreOf // locate() reads through it while the drain is in flight
	return s.startMigration(start, plan, Event{Kind: EventScaleDownStarted, Disks: append([]int(nil), indices...)})
}

// NeedsRedistribution reports whether the configured unfairness tolerance
// can no longer be guaranteed (the Lemma 4.3 precondition failed) and a
// FullRedistribute should be scheduled. Always false when budget tracking
// is disabled.
func (s *Server) NeedsRedistribution() bool {
	return s.budget != nil && !s.budget.WithinTolerance(s.cfg.Tolerance)
}

// Budget exposes the randomness budget, or nil when tracking is disabled.
func (s *Server) Budget() *scaddar.Budget { return s.budget }

// FullRedistribute performs the complete redistribution the paper
// recommends once the randomness budget is exhausted: every block re-places
// with fresh randomness (nearly all of them move), the operation log
// restarts from the current disk count, and the budget resets. The
// migration runs inside subsequent Tick calls like any scaling operation.
// The placement strategy must support rebaselining (SCADDAR does).
func (s *Server) FullRedistribute() (*reorg.Plan, error) {
	if err := s.reorgIdle(); err != nil {
		return nil, err
	}
	rb, ok := s.strat.(reorg.Rebaseliner)
	if !ok {
		return nil, fmt.Errorf("cm: strategy %q does not support full redistribution", s.strat.Name())
	}
	start := time.Now()
	plan, err := reorg.PlanRebaseline(rb, s.eachBlock)
	if err != nil {
		return nil, err
	}
	return s.startMigration(start, plan, Event{Kind: EventRedistributeStarted})
}

// CompleteScaleDown detaches the drained disks of a ScaleDown. It fails if
// the migration has not finished or any doomed disk still holds blocks.
func (s *Server) CompleteScaleDown() error {
	if len(s.pendingRemoval) == 0 {
		return fmt.Errorf("cm: no scale-down in progress")
	}
	if s.Reorganizing() {
		return fmt.Errorf("cm: scale-down migration still has %d moves pending", s.migration.Remaining())
	}
	if s.RebuildRemaining() > 0 {
		// Detaching disks renumbers logical indices the rebuild items hold.
		return fmt.Errorf("cm: %d rebuild items still pending", s.RebuildRemaining())
	}
	for _, logical := range s.pendingRemoval {
		d, err := s.array.Disk(logical)
		if err != nil {
			return err
		}
		if d.Len() != 0 {
			return fmt.Errorf("cm: disk %d still holds %d blocks", d.ID(), d.Len())
		}
	}
	// The drained disks leave the array for good: their payload footprint
	// goes with them.
	for _, logical := range s.pendingRemoval {
		d, err := s.array.Disk(logical)
		if err != nil {
			return err
		}
		if ps := d.Payload(); ps != nil {
			if err := ps.Destroy(); err != nil {
				return fmt.Errorf("cm: destroy payload store of disk %d: %w", d.ID(), err)
			}
			d.AttachPayload(nil)
		}
	}
	if _, err := s.array.Remove(s.pendingRemoval...); err != nil {
		return err
	}
	s.pendingRemoval = nil
	s.removalPreOf = nil
	s.migration = nil
	s.emit(Event{Kind: EventReorgCompleted})
	return nil
}

// FinishReorganization clears a completed scale-up migration. It is called
// automatically by the next scaling operation; exposing it lets callers
// assert quiescence.
func (s *Server) FinishReorganization() error {
	if s.migration == nil {
		return nil
	}
	if !s.migration.Done() {
		return fmt.Errorf("cm: reorganization still has %d moves pending", s.migration.Remaining())
	}
	if len(s.pendingRemoval) > 0 {
		return s.CompleteScaleDown()
	}
	s.migration = nil
	s.emit(Event{Kind: EventReorgCompleted})
	return nil
}

// MigrationRemaining reports pending reorganization moves.
func (s *Server) MigrationRemaining() int { return s.PendingView().Len() }

// ProblemStreams — streams currently mid-hiccup — is not tracked separately;
// use Stream.Hiccups. VerifyIntegrity checks the global invariant instead:
// every loaded block is on exactly the disk the strategy names, except for
// blocks whose absence is an accounted degraded-mode condition (home disk
// failed, rebuild pending, or recorded permanently lost).
func (s *Server) VerifyIntegrity() error {
	total, missing := 0, 0
	var verr error
	s.forEachBlock(func(object int, ref placement.BlockRef) {
		if verr != nil {
			return
		}
		total++
		bid := blockID(object, ref.Index)
		logical := s.locate(ref)
		d, err := s.array.Disk(logical)
		if err != nil {
			verr = err
			return
		}
		if d.Has(bid) {
			return
		}
		if s.blockDegraded(ref, bid, d) {
			missing++
			return
		}
		verr = fmt.Errorf("cm: block %d/%d not on disk %d where placement expects it",
			object, ref.Index, d.ID())
	})
	if verr != nil {
		return verr
	}
	if got, want := s.array.TotalBlocks(), total-missing; got != want {
		return fmt.Errorf("cm: array holds %d blocks, catalog expects %d (%d degraded-missing)",
			got, want, missing)
	}
	return nil
}
