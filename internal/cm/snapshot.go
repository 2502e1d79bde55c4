package cm

import (
	"fmt"

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
// behind an atomic pointer. A lookup inside the snapshot is one probe of the
// resolved object catalogue, the object's own generator, and the compiled
// chain — lock-free for counter-based generators.

// SnapshotObject describes one loaded object in a snapshot's catalog.
type SnapshotObject struct {
	// ID is the object's identity.
	ID int `json:"id"`
	// Blocks is the object's extent in blocks.
	Blocks int `json:"blocks"`
	// BlockBytes is the block size.
	BlockBytes int64 `json:"blockBytes"`
}

// snapshotStrategy is what BuildSnapshot needs of the placement strategy
// (placement.Scaddar provides it): a point-in-time compiled chain, and the
// object catalogue resolved against the strategy's current epoch.
type snapshotStrategy interface {
	SnapshotChain() *scaddar.CompiledChain
	ResolveCatalog(factory scaddar.SourceFactory, rows []placement.CatalogRow) (*placement.Catalog, error)
	Resolved(*placement.Catalog) bool
}

// LocatorSnapshot is an immutable, concurrency-safe view of the block
// location function at one instant: the resolved object catalogue, the
// compiled REMAP chain of a cloned operation log, a point-in-time view of
// the in-flight migration's pending set, and the scale-down index
// translation. All fields are written once at build time; any number of
// goroutines may call Locate concurrently afterwards.
//
// The steady-state Locate path — catalogue probe, pending-set probe, X0
// regeneration, multiply-shift remap — consults no Go map, interprets no
// operation log and allocates nothing.
type LocatorSnapshot struct {
	n        int
	epoch    uint64
	degraded bool
	// catalog is the server's resolved catalogue as of build time, shared
	// by pointer with every other snapshot built until the object set or
	// the strategy's epoch next changes.
	catalog *placement.Catalog
	chain   *scaddar.CompiledChain
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
// The placement strategy must be able to resolve a catalogue for concurrent
// readers (SCADDAR does) from factory, which must build the generator family
// the strategy's X0Func uses — the same one at every call: the resolved
// catalogue is kept and shared by later snapshots until an object is added
// or removed or a complete redistribution changes the epoch. BuildSnapshot
// must be called from the goroutine that owns the server — typically after
// every scaling operation and after each Tick while a migration is draining,
// so the pending set stays fresh. Between catalogue changes its cost depends
// neither on the number of objects nor on how many moves are pending.
func (s *Server) BuildSnapshot(factory scaddar.SourceFactory) (*LocatorSnapshot, error) {
	strat, ok := s.strat.(snapshotStrategy)
	if !ok {
		return nil, fmt.Errorf("cm: strategy %q does not provide a concurrent locator", s.strat.Name())
	}
	if factory == nil {
		return nil, fmt.Errorf("cm: snapshot needs a source factory")
	}
	if !strat.Resolved(s.catalog) {
		rows := make([]placement.CatalogRow, 0, len(s.objects))
		for id, o := range s.objects {
			rows = append(rows, placement.CatalogRow{ID: id, Seed: o.Seed, Blocks: o.Blocks, BlockBytes: o.BlockBytes})
		}
		cat, err := strat.ResolveCatalog(factory, rows)
		if err != nil {
			return nil, err
		}
		s.catalog = cat
	}
	sn := &LocatorSnapshot{
		n:        s.N(),
		epoch:    s.placementEpoch,
		degraded: s.Degraded(),
		catalog:  s.catalog,
		chain:    strat.SnapshotChain(),
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
	out := make([]SnapshotObject, 0, sn.catalog.Len())
	for _, o := range sn.catalog.Objects() {
		out = append(out, SnapshotObject{ID: o.ID, Blocks: o.Blocks, BlockBytes: o.BlockBytes})
	}
	return out
}

// ObjectCount returns the number of objects in the snapshot's catalog.
func (sn *LocatorSnapshot) ObjectCount() int { return sn.catalog.Len() }

// locatePending is resolve's own fifth status, never reported to a caller:
// the block's move is still pending and the disk returned is its
// pre-operation home.
const locatePending uint8 = 0xff

// resolve is everything a lookup does ahead of the chain, for Locate and
// LocateBatch alike: the catalogue probe, the extent check, the
// pending-move probe and the block's X0. With LocateOK x0 is to be remapped
// through the chain; with locatePending home is the answer; any other
// status is the lookup's failure.
func (sn *LocatorSnapshot) resolve(a BlockAddr) (x0 uint64, home int, status uint8) {
	obj := sn.catalog.Find(a.Object)
	if obj == nil {
		return 0, 0, LocateUnknownObject
	}
	if a.Index < 0 || a.Index >= obj.Blocks {
		return 0, 0, LocateOutOfRange
	}
	if from, pending := sn.pending.Source(placement.BlockRef{Seed: obj.Seed, Index: uint64(a.Index)}); pending {
		return 0, from, locatePending
	}
	x0, ok := obj.X0(uint64(a.Index))
	if !ok {
		return 0, 0, LocateFailed
	}
	return x0, 0, LocateOK
}

// Locate returns the logical disk currently holding a block, applying the
// same mid-migration rules as Server.locate: a block whose move is still
// pending is served from its pre-operation home, and during a scale-down
// drain the post-removal numbering is translated back to the pre-removal
// numbering the physical array still uses. Safe for concurrent callers.
func (sn *LocatorSnapshot) Locate(object, index int) (int, error) {
	x0, home, status := sn.resolve(BlockAddr{Object: object, Index: index})
	switch status {
	case LocateOK:
		d := sn.chain.Locate(x0)
		if sn.preOf != nil {
			d = sn.preOf[d]
		}
		return d, nil
	case locatePending:
		return home, nil
	case LocateUnknownObject:
		return 0, fmt.Errorf("%w: object %d", ErrUnknownObject, object)
	case LocateOutOfRange:
		return 0, fmt.Errorf("%w: object %d has no block %d", ErrBlockOutOfRange, object, index)
	default:
		return 0, fmt.Errorf("%w: object %d", placement.ErrGeneratorWidth, object)
	}
}

// Healthy reports whether the disk at the given logical index was healthy
// at snapshot time. Out-of-range indices report false.
func (sn *LocatorSnapshot) Healthy(logical int) bool {
	if logical < 0 || logical >= len(sn.health) {
		return false
	}
	return sn.health[logical] == disk.Healthy
}
