package cm

import (
	"fmt"
	"sort"

	"scaddar/internal/disk"
	"scaddar/internal/placement"
	"scaddar/internal/reorg"
	"scaddar/internal/scaddar"
)

// This file gives the server a concurrency-safe read path. The simulator
// itself is single-owner: one goroutine calls Tick and the control surface.
// A network gateway, however, must answer "which disk holds block i of
// object m" from many request handlers at once — exactly the workload the
// paper's AO1 property (directory-free O(j) lookup) makes viable. The
// bridge is a LocatorSnapshot: an immutable point-in-time view built by the
// owner after every placement-changing event and published to readers
// behind an atomic pointer. Lookups inside the snapshot go through
// scaddar.SafeLocator, whose concurrent access is lock-free for
// counter-based generators.

// SnapshotObject describes one loaded object in a snapshot's catalog.
type SnapshotObject struct {
	// ID is the object's identity.
	ID int `json:"id"`
	// Blocks is the object's extent in blocks.
	Blocks int `json:"blocks"`
	// BlockBytes is the block size.
	BlockBytes int64 `json:"blockBytes"`
}

// snapObject is the internal per-object record.
type snapObject struct {
	seed       uint64
	blocks     int
	blockBytes int64
}

// LocatorSnapshot is an immutable, concurrency-safe view of the block
// location function at one instant: the object catalog, a SafeLocator over
// a cloned operation log, a point-in-time view of the in-flight migration's
// pending set, and the scale-down index translation. All fields are written
// once at build time; any number of goroutines may call Locate concurrently
// afterwards.
//
// The snapshot holds the SafeLocator's compiled REMAP chain directly, so
// the steady-state Locate path — pending-set probe, X0 regeneration,
// multiply-shift remap — interprets no operation log and allocates nothing.
type LocatorSnapshot struct {
	n        int
	epoch    uint64
	degraded bool
	objects  map[int]snapObject
	loc      *scaddar.SafeLocator
	// chain is loc's compiled chain, resolved once at build time so Locate
	// skips even the cached-compile version check.
	chain *scaddar.CompiledChain
	// pending is the in-flight migration's pending set as of build time
	// (mirrors Executor.PendingSource then): blocks whose move had not
	// executed yet, by their pre-operation source disk. It is a view onto
	// the executor's own set, not a copy, so building it costs nothing; the
	// zero view outside a migration.
	pending reorg.PendingView
	// preOf translates post-removal logical indices back to the
	// pre-removal numbering while a scale-down drain is in flight
	// (mirrors Server.removalPreOf).
	preOf []int
	// health is the per-logical-disk health at build time.
	health []disk.Health
}

// BuildSnapshot constructs a LocatorSnapshot of the server's current state.
// The placement strategy must provide a concurrent locator
// (placement.ConcurrentLocatorProvider; SCADDAR does), built from the same
// generator factory the strategy's X0Func uses. It must be called from the
// goroutine that owns the server — typically after every scaling operation
// and after each Tick while a migration is draining, so the pending set
// stays fresh. The cost does not depend on how many moves are pending.
func (s *Server) BuildSnapshot(factory scaddar.SourceFactory) (*LocatorSnapshot, error) {
	provider, ok := s.strat.(placement.ConcurrentLocatorProvider)
	if !ok {
		return nil, fmt.Errorf("cm: strategy %q does not provide a concurrent locator", s.strat.Name())
	}
	loc, err := provider.ConcurrentLocator(factory)
	if err != nil {
		return nil, err
	}
	objs := make(map[int]snapObject, len(s.objects))
	for id, o := range s.objects {
		objs[id] = snapObject{seed: o.Seed, blocks: o.Blocks, blockBytes: o.BlockBytes}
	}
	sn := &LocatorSnapshot{
		n:        s.N(),
		epoch:    s.placementEpoch,
		degraded: s.Degraded(),
		objects:  objs,
		loc:      loc,
		chain:    loc.Chain(),
		pending:  s.PendingView(),
	}
	if s.migration != nil && s.removalPreOf != nil {
		sn.preOf = append([]int(nil), s.removalPreOf...)
	}
	sn.health = make([]disk.Health, s.N())
	for i := range sn.health {
		d, err := s.array.Disk(i)
		if err != nil {
			return nil, err
		}
		sn.health[i] = d.Health()
	}
	return sn, nil
}

// N returns the logical disk count at snapshot time.
func (sn *LocatorSnapshot) N() int { return sn.n }

// Epoch returns the server's placement epoch at snapshot time (see
// Server.PlacementEpoch). Two snapshots with equal epochs were built under
// the same scaling-operation generation; a change tells a remote reader that
// a reorganization started or finished between its lookups.
func (sn *LocatorSnapshot) Epoch() uint64 { return sn.epoch }

// Reorganizing reports whether a migration was draining at snapshot time.
func (sn *LocatorSnapshot) Reorganizing() bool { return sn.pending.Len() > 0 }

// Degraded reports whether any disk was failed or rebuilding at snapshot
// time.
func (sn *LocatorSnapshot) Degraded() bool { return sn.degraded }

// Objects returns the snapshot's object catalog sorted by ID.
func (sn *LocatorSnapshot) Objects() []SnapshotObject {
	out := make([]SnapshotObject, 0, len(sn.objects))
	for id, o := range sn.objects {
		out = append(out, SnapshotObject{ID: id, Blocks: o.blocks, BlockBytes: o.blockBytes})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Locate returns the logical disk currently holding a block, applying the
// same mid-migration rules as Server.locate: a block whose move is still
// pending is served from its pre-operation home, and during a scale-down
// drain the post-removal numbering is translated back to the pre-removal
// numbering the physical array still uses. Safe for concurrent callers.
func (sn *LocatorSnapshot) Locate(object, index int) (int, error) {
	obj, ok := sn.objects[object]
	if !ok {
		return 0, fmt.Errorf("%w: object %d", ErrUnknownObject, object)
	}
	if index < 0 || index >= obj.blocks {
		return 0, fmt.Errorf("%w: object %d has no block %d", ErrBlockOutOfRange, object, index)
	}
	ref := placement.BlockRef{Seed: obj.seed, Index: uint64(index)}
	if from, pending := sn.pending.Source(ref); pending {
		return from, nil
	}
	x0, err := sn.loc.X0(obj.seed, uint64(index))
	if err != nil {
		return 0, err
	}
	d := sn.chain.Locate(x0)
	if sn.preOf != nil {
		return sn.preOf[d], nil
	}
	return d, nil
}

// Healthy reports whether the disk at the given logical index was healthy
// at snapshot time. Out-of-range indices report false.
func (sn *LocatorSnapshot) Healthy(logical int) bool {
	if logical < 0 || logical >= len(sn.health) {
		return false
	}
	return sn.health[logical] == disk.Healthy
}
