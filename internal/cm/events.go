package cm

// This file defines the server's durable event stream: every state-changing
// transition emits one Event to an optional sink after the mutation has been
// applied. The stream is what internal/store journals — together with a
// metadata checkpoint it is sufficient to rebuild the server's control-plane
// state after a crash (replay helpers live in replay.go). Read-path activity
// (stream service, hiccups, cache hits) is deliberately not evented: it is
// reconstructible from nothing and journaling it would put the data path in
// the durability hot loop.

import (
	"fmt"

	"scaddar/internal/disk"
	"scaddar/internal/workload"
)

// EventKind enumerates the durable control-plane events a Server emits.
type EventKind int

// Event kinds. Values are part of the journal's on-disk format: append new
// kinds at the end, never renumber.
const (
	// EventObjectAdded: an object's blocks were loaded (Object).
	EventObjectAdded EventKind = iota + 1
	// EventObjectRemoved: an object and its blocks were deleted (ObjectID).
	EventObjectRemoved
	// EventIngestCommitted: a recording session finished and its object
	// entered the catalog (Object).
	EventIngestCommitted
	// EventScaleUpStarted: disks were attached and a rebalancing migration
	// began (Count, and Profile when a non-baseline generation was added).
	EventScaleUpStarted
	// EventScaleDownStarted: a drain of the given logical disks began
	// (Disks).
	EventScaleDownStarted
	// EventRedistributeStarted: a complete redistribution (rebaseline)
	// began.
	EventRedistributeStarted
	// EventBlocksMigrated: the listed pending moves executed (Moves).
	EventBlocksMigrated
	// EventReorgCompleted: the in-flight reorganization finished and was
	// cleared (for a scale-down, the drained disks were detached).
	EventReorgCompleted
	// EventDiskFailed: the disk at a logical index failed (Disk, and Lost
	// when the failure made blocks permanently unrecoverable).
	EventDiskFailed
	// EventDiskRepaired: a replacement arrived at a logical index (Disk).
	EventDiskRepaired
	// EventBlocksRebuilt: the listed rebuild items completed (Rebuilt).
	EventBlocksRebuilt
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventObjectAdded:
		return "object-added"
	case EventObjectRemoved:
		return "object-removed"
	case EventIngestCommitted:
		return "ingest-committed"
	case EventScaleUpStarted:
		return "scale-up-started"
	case EventScaleDownStarted:
		return "scale-down-started"
	case EventRedistributeStarted:
		return "redistribute-started"
	case EventBlocksMigrated:
		return "blocks-migrated"
	case EventReorgCompleted:
		return "reorg-completed"
	case EventDiskFailed:
		return "disk-failed"
	case EventDiskRepaired:
		return "disk-repaired"
	case EventBlocksRebuilt:
		return "blocks-rebuilt"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// IsEpochEvent reports whether an event kind begins or ends a scaling
// operation — the placement-epoch boundaries replication fences reads on. A
// follower that has not applied an epoch event the leader has journaled must
// refuse lookups (ErrEpochFenced) rather than serve locations computed under
// the superseded operation log. Per-block migration events deliberately do
// not count: mid-drain moves are what bounded staleness covers.
func IsEpochEvent(k EventKind) bool {
	switch k {
	case EventScaleUpStarted, EventScaleDownStarted, EventRedistributeStarted, EventReorgCompleted:
		return true
	}
	return false
}

// BlockPos identifies one block by catalog coordinates. Events use it
// instead of placement references (seeds are already durable in the catalog)
// and of plan positions (a journal replays whatever order its writer planned in).
type BlockPos struct {
	// Object is the owning object's catalog ID.
	Object int
	// Index is the block's index within the object.
	Index uint64
}

// RebuildPos identifies one rebuild item by catalog coordinates; Kind is the
// rebuild kind (primary copy, mirror copy, parity block). For parity blocks
// Index holds the group number.
type RebuildPos struct {
	// Kind is the rebuild item kind (primary, mirror, or parity).
	Kind int
	// Object is the owning object's catalog ID.
	Object int
	// Index is the block index, or the parity group number for parity items.
	Index uint64
}

// Event is one durable control-plane transition. Exactly the fields the
// Kind documents are meaningful; the rest are zero.
type Event struct {
	// Kind says which transition happened and which fields are meaningful.
	Kind EventKind
	// Object is the full catalog entry for EventObjectAdded and
	// EventIngestCommitted.
	Object workload.Object
	// ObjectID names the removed object for EventObjectRemoved.
	ObjectID int
	// Disk is the failed or repaired disk's logical index.
	Disk int
	// Count is the number of disks added by EventScaleUpStarted.
	Count int
	// Profile, when non-nil, is the hardware profile of the added disks.
	Profile *disk.Profile
	// Disks lists the logical indices removed by EventScaleDownStarted.
	Disks []int
	// Moves lists the blocks a migration round committed.
	Moves []BlockPos
	// Rebuilt lists the items a rebuild round re-materialized.
	Rebuilt []RebuildPos
	// Lost lists the blocks an unprotected disk failure destroyed.
	Lost []BlockPos
}

// EventSink receives events synchronously, on the goroutine that mutated the
// server, after the mutation succeeded. A sink must not call back into the
// server.
type EventSink func(Event)

// SetEventSink installs (or, with nil, removes) the event sink. Events are
// emitted after their mutation has been applied, so a sink that journals
// them loses at most the transitions since its last flush on a crash — the
// group-commit window, never committed state.
func (s *Server) SetEventSink(sink EventSink) { s.events = sink }

// AddEventSink tees an additional, non-durable observer behind the primary
// sink: it sees every event the journal does, after the journal's sink. The
// gateway's delta feed uses this to learn about migrated blocks and epoch
// boundaries without displacing the durable store.
func (s *Server) AddEventSink(sink EventSink) {
	if sink != nil {
		s.extraSinks = append(s.extraSinks, sink)
	}
}

// emit delivers an event to the sink, if any, after teeing it into the
// observability layer: the observer's per-kind counter and the trace ring
// (tagged with the current round) both see every event the journal does.
func (s *Server) emit(ev Event) {
	if IsEpochEvent(ev.Kind) {
		s.placementEpoch++
	}
	if s.obsv != nil {
		s.obsv.observeEvent(ev)
	}
	if s.trace != nil {
		sp := EventSpan(ev)
		sp.Round = int64(s.metrics.Rounds)
		s.trace.Append(sp)
	}
	if s.events != nil {
		s.events(ev)
	}
	for _, sink := range s.extraSinks {
		sink(ev)
	}
}

// PlacementEpoch returns the number of epoch events emitted so far: it
// advances when a scaling operation starts or finishes (IsEpochEvent), never
// for per-block migration progress. Crash recovery and follower replay drive
// the same emitting mutators, so the counter is consistent with the journal
// suffix it was rebuilt from; it is NOT comparable across processes that
// replayed from different checkpoints — clients must treat it as an opaque
// generation tag, not a global sequence number.
func (s *Server) PlacementEpoch() uint64 { return s.placementEpoch }

// seedOfObject resolves an object ID to its placement seed, consulting
// in-progress ingests as well as the catalog.
func (s *Server) seedOfObject(object int) (uint64, bool) {
	if obj, ok := s.objects[object]; ok {
		return obj.Seed, true
	}
	for _, in := range s.ingests {
		if in.Object.ID == object {
			return in.Object.Seed, true
		}
	}
	return 0, false
}

// objectOfSeed is the inverse of seedOfObject: it resolves a placement seed
// to its object ID, consulting in-progress ingests as well as the catalog.
// Emit sites must use it (and skip on a miss) rather than indexing seedOf
// directly — an unchecked miss would journal object 0, which replays as the
// wrong object's mutation or fails recovery outright.
func (s *Server) objectOfSeed(seed uint64) (int, bool) {
	if id, ok := s.seedOf[seed]; ok {
		return id, true
	}
	for _, in := range s.ingests {
		if in.Object.Seed == seed {
			return in.Object.ID, true
		}
	}
	return 0, false
}
