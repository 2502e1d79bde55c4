package cm

// This file adds the bulk companion to LocatorSnapshot.Locate. A binary
// lookup frame carries many (object, block) pairs, and resolving them one
// Locate call at a time would re-pay the wrapped-error allocation and the
// op-by-op chain walk per block. LocateBatch instead runs Locate's own
// resolve step per entry, then hands every still-unresolved X0 to
// the compiled chain's op-major LocateBatch sweep, and reports per-entry
// failures as status codes rather than errors — so the whole batch is
// zero-alloc once the caller's scratch has warmed up.

// BlockAddr names one block in a bulk lookup: catalog object ID plus block
// index within the object.
type BlockAddr struct {
	// Object is the object's catalog ID.
	Object int
	// Index is the block index within the object.
	Index int
}

// Per-entry status codes reported by LocatorSnapshot.LocateBatch. They stand
// in for the typed errors Locate would wrap (ErrUnknownObject,
// ErrBlockOutOfRange) so a bulk caller pays no allocation for failed entries.
const (
	// LocateOK: the entry resolved; the disks slot holds its logical disk.
	LocateOK uint8 = 0
	// LocateUnknownObject: the object ID is not in the snapshot's catalog
	// (Locate would return ErrUnknownObject).
	LocateUnknownObject uint8 = 1
	// LocateOutOfRange: the block index is outside the object's extent
	// (Locate would return ErrBlockOutOfRange).
	LocateOutOfRange uint8 = 2
	// LocateFailed: the locator could not regenerate the entry's X0 — a
	// generator-width misconfiguration, never a per-request condition.
	LocateFailed uint8 = 3
)

// BatchScratch carries LocateBatch's reusable intermediate buffers so
// repeated batches allocate nothing once the buffers have grown to the
// caller's steady batch size. The zero value is ready to use. A scratch must
// not be shared by concurrent callers.
type BatchScratch struct {
	xs  []uint64
	ds  []int
	pos []int
}

// LocateBatch resolves addrs[i] into disks[i] and status[i], applying the
// same mid-migration rules as Locate: pending moves are served from their
// pre-operation home, and scale-down drains translate back to the
// pre-removal numbering. disks and status must be at least len(addrs) long;
// failed entries get a non-OK status and disk 0. Safe for concurrent callers
// as long as each uses its own scratch; allocation-free once the scratch has
// warmed to the batch size.
func (sn *LocatorSnapshot) LocateBatch(addrs []BlockAddr, disks []int32, status []uint8, sc *BatchScratch) {
	if len(disks) < len(addrs) || len(status) < len(addrs) {
		panic("cm: LocateBatch output shorter than input")
	}
	if cap(sc.xs) < len(addrs) {
		sc.xs, sc.ds, sc.pos = make([]uint64, len(addrs)), make([]int, len(addrs)), make([]int, len(addrs))
	}
	xs, pos := sc.xs[:len(addrs)], sc.pos[:len(addrs)]
	n := 0
	for i, a := range addrs {
		switch x0, home, st := sn.resolve(a); st {
		case LocateOK:
			xs[n], pos[n] = x0, i
			n++
		case locatePending:
			disks[i], status[i] = int32(home), LocateOK
		default:
			disks[i], status[i] = 0, st
		}
	}
	ds := sc.ds[:n]
	sn.chain.LocateBatch(xs[:n], ds)
	for k, i := range pos[:n] {
		d := ds[k]
		if sn.preOf != nil {
			d = sn.preOf[d]
		}
		disks[i], status[i] = int32(d), LocateOK
	}
}
