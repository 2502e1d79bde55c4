// Package disk models the magnetic disks a continuous-media server stores
// its blocks on: capacity in blocks, a seek/rotation/transfer service-time
// model, and per-disk block inventories. The model is deliberately simple —
// a fixed average seek, half-rotation latency, and linear transfer — which
// is the standard first-order model for round-based CM retrieval scheduling
// and is all the SCADDAR experiments need: the paper's claims are about
// which blocks live where and how many must move, not about head-scheduling
// micro-behaviour.
//
// Profiles of typical circa-2001 drives (the paper's hardware era) and a
// modern comparator are provided so examples and benchmarks can speak in
// real units.
package disk

import (
	"errors"
	"fmt"
	"time"

	"scaddar/internal/bufpool"
)

// Typed errors for array surgery and health transitions, so callers can
// distinguish operational conditions (a disk mid-rebuild, a degenerate
// removal) from programming errors with errors.Is.
var (
	// ErrAddNone is returned when an Add names a non-positive disk count.
	ErrAddNone = errors.New("disk: add of fewer than 1 disk")
	// ErrRemoveNone is returned when a Remove names no disks.
	ErrRemoveNone = errors.New("disk: removal of empty disk group")
	// ErrRemoveAll is returned when a Remove would leave an empty array.
	ErrRemoveAll = errors.New("disk: removal would leave no disks")
	// ErrDiskRebuilding is returned when a Remove names a disk whose rebuild
	// is still in progress — pulling it would discard the blocks already
	// re-materialized and restart the repair from nothing.
	ErrDiskRebuilding = errors.New("disk: disk is mid-rebuild")
	// ErrDiskFailed is returned when a block is stored on a failed disk.
	ErrDiskFailed = errors.New("disk: disk has failed")
	// ErrBadHealthTransition is returned for invalid health state changes
	// (failing a failed disk, rebuilding a healthy one, ...).
	ErrBadHealthTransition = errors.New("disk: invalid health transition")
)

// Health is a disk's position in the failure/repair lifecycle:
// Healthy → Failed (fault) → Rebuilding (replacement arrived) → Healthy
// (re-materialization complete).
type Health int

// Health states.
const (
	// Healthy disks serve reads and writes normally.
	Healthy Health = iota
	// Failed disks lost their contents and serve nothing; reads targeting
	// them must fail over to redundant copies.
	Failed
	// Rebuilding disks are empty replacements being re-filled from
	// redundancy; they absorb writes and serve reads for blocks already
	// restored.
	Rebuilding
)

// String names the health state.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Failed:
		return "failed"
	case Rebuilding:
		return "rebuilding"
	default:
		return fmt.Sprintf("health(%d)", int(h))
	}
}

// BlockID identifies a stored block. The continuous-media layer composes it
// from (object, index); this package treats it as opaque.
type BlockID uint64

// Profile describes a disk model's performance characteristics.
type Profile struct {
	// Name of the disk model.
	Name string
	// CapacityBytes is the formatted capacity.
	CapacityBytes int64
	// AvgSeek is the average seek time.
	AvgSeek time.Duration
	// RPM is the spindle speed, used for the half-rotation latency.
	RPM int
	// TransferBytesPerSec is the sustained transfer rate.
	TransferBytesPerSec int64
}

// Typical profiles. Cheetah73 approximates a Seagate Cheetah 73LP (2001),
// the class of drive a CM server of the paper's era would use; Barracuda180
// a slower high-capacity drive of the same period; Modern a contemporary
// 7200-RPM nearline disk for scale-up experiments.
var (
	Cheetah73 = Profile{
		Name:                "cheetah73lp",
		CapacityBytes:       73 << 30,
		AvgSeek:             4900 * time.Microsecond,
		RPM:                 10000,
		TransferBytesPerSec: 53 << 20,
	}
	Barracuda180 = Profile{
		Name:                "barracuda180",
		CapacityBytes:       180 << 30,
		AvgSeek:             7400 * time.Microsecond,
		RPM:                 7200,
		TransferBytesPerSec: 26 << 20,
	}
	Modern = Profile{
		Name:                "modern7200",
		CapacityBytes:       4 << 40,
		AvgSeek:             8 * time.Millisecond,
		RPM:                 7200,
		TransferBytesPerSec: 220 << 20,
	}
)

// RotationalLatency returns the expected rotational delay (half a
// revolution).
func (p Profile) RotationalLatency() time.Duration {
	if p.RPM <= 0 {
		return 0
	}
	revolution := time.Duration(float64(time.Minute) / float64(p.RPM))
	return revolution / 2
}

// ServiceTime returns the expected time to read one block of the given
// size: average seek + half rotation + transfer.
func (p Profile) ServiceTime(blockBytes int64) time.Duration {
	transfer := time.Duration(0)
	if p.TransferBytesPerSec > 0 {
		transfer = time.Duration(float64(blockBytes) / float64(p.TransferBytesPerSec) * float64(time.Second))
	}
	return p.AvgSeek + p.RotationalLatency() + transfer
}

// BlocksPerRound returns how many block reads of the given size fit into
// one scheduling round — the per-disk stream capacity of a round-based CM
// server.
func (p Profile) BlocksPerRound(round time.Duration, blockBytes int64) int {
	st := p.ServiceTime(blockBytes)
	if st <= 0 {
		return 0
	}
	return int(round / st)
}

// CapacityBlocks returns how many blocks of the given size the disk holds.
func (p Profile) CapacityBlocks(blockBytes int64) int {
	if blockBytes <= 0 {
		return 0
	}
	return int(p.CapacityBytes / blockBytes)
}

// PayloadStore is the optional byte-bearing backend of a disk: real block
// payloads in per-disk segment files (internal/dataplane implements it).
// Without one attached, the disk is a pure metadata simulation, as in the
// original reproduction.
type PayloadStore interface {
	// Put stores (or replaces) a block's payload.
	Put(BlockID, []byte) error
	// ReadBlocks is the one read path: it fills Payload or Err for every
	// request slot independently — per-block errors, shared buffers for
	// physically adjacent records — so the round scheduler issues one call
	// per disk, and migration reads a block through the same pooled path.
	ReadBlocks(reqs []BlockRead)
	// Delete removes a block's payload; absent blocks are a no-op.
	Delete(BlockID) error
	// Blocks lists every stored payload's ID in unspecified order.
	Blocks() []BlockID
	// Wipe discards all payloads, leaving an empty usable store — the
	// data-loss half of a whole-disk failure.
	Wipe() error
	// Destroy wipes the store and removes its on-disk footprint — the
	// disk left the array for good.
	Destroy() error
	// Close releases resources, persisting what should persist.
	Close() error
}

// BlockRead is one request/result slot in a batched payload read. The
// caller fills Block; the store fills exactly one of Payload or Err. A
// successful slot's Payload carries one buffer reference owned by the
// caller — release it (or hand it on) exactly once.
type BlockRead struct {
	// Block is the requested block, set by the caller.
	Block BlockID
	// Payload is the block's bytes on success. Coalesced implementations
	// may back several slots with one shared pooled buffer, one reference
	// per slot.
	Payload bufpool.Payload
	// Err is the per-block failure: not-found, integrity, or injected
	// fault. A fault in one slot must not poison its neighbours.
	Err error
}

// PayloadFactory opens the payload store for a disk by its stable ID —
// how the CM server attaches backends as disks join the array.
type PayloadFactory func(diskID int) (PayloadStore, error)

// Disk is one simulated disk: a profile, a stable identity, and the
// inventory of blocks currently stored on it.
type Disk struct {
	id      int
	profile Profile
	blocks  inventory
	health  Health
	payload PayloadStore

	// Round accounting, reset by ResetRound.
	reads    int
	writes   int
	migrated int
}

// New creates an empty disk with the given stable identity and profile.
func New(id int, profile Profile) *Disk {
	return &Disk{id: id, profile: profile, blocks: newInventory()}
}

// ID returns the disk's stable identity.
func (d *Disk) ID() int { return d.id }

// Profile returns the disk's performance profile.
func (d *Disk) Profile() Profile { return d.profile }

// Len returns the number of blocks stored.
func (d *Disk) Len() int { return d.blocks.n }

// Health returns the disk's current health state.
func (d *Disk) Health() Health { return d.health }

// Fail transitions the disk to Failed and wipes its contents — a whole-disk
// fault loses the data, payload bytes included when a payload store is
// attached. It returns the IDs of the blocks that were lost so the recovery
// layer can plan their re-materialization.
func (d *Disk) Fail() ([]BlockID, error) {
	if d.health == Failed {
		return nil, fmt.Errorf("%w: disk %d is already failed", ErrBadHealthTransition, d.id)
	}
	lost := d.Blocks()
	d.blocks = newInventory() // the old pages are released with the old map
	d.health = Failed
	if d.payload != nil {
		if err := d.payload.Wipe(); err != nil {
			return nil, fmt.Errorf("disk %d: wipe payload on failure: %w", d.id, err)
		}
	}
	return lost, nil
}

// AttachPayload attaches (or detaches, with nil) the disk's payload store.
func (d *Disk) AttachPayload(ps PayloadStore) { d.payload = ps }

// Payload returns the attached payload store, or nil.
func (d *Disk) Payload() PayloadStore { return d.payload }

// StartRebuild transitions a Failed disk to Rebuilding: the replacement
// hardware arrived empty and re-materialization may begin.
func (d *Disk) StartRebuild() error {
	if d.health != Failed {
		return fmt.Errorf("%w: disk %d is %s, not failed", ErrBadHealthTransition, d.id, d.health)
	}
	d.health = Rebuilding
	return nil
}

// FinishRebuild transitions a Rebuilding disk back to Healthy.
func (d *Disk) FinishRebuild() error {
	if d.health != Rebuilding {
		return fmt.Errorf("%w: disk %d is %s, not rebuilding", ErrBadHealthTransition, d.id, d.health)
	}
	d.health = Healthy
	return nil
}

// Has reports whether the block is stored on this disk.
func (d *Disk) Has(b BlockID) bool { return d.blocks.has(b) }

// Store places a block on the disk. Storing a block twice is an error — it
// would mask accounting bugs in the reorganization engine.
func (d *Disk) Store(b BlockID) error {
	if d.health == Failed {
		return fmt.Errorf("%w: disk %d cannot store block %d", ErrDiskFailed, d.id, b)
	}
	if !d.blocks.add(b) {
		return fmt.Errorf("disk %d: block %d already stored", d.id, b)
	}
	d.writes++
	return nil
}

// Remove deletes a block from the disk.
func (d *Disk) Remove(b BlockID) error {
	if !d.blocks.remove(b) {
		return fmt.Errorf("disk %d: block %d not stored", d.id, b)
	}
	return nil
}

// Read records a block read for round accounting and reports whether the
// block was present.
func (d *Disk) Read(b BlockID) bool {
	if !d.blocks.has(b) {
		return false
	}
	d.reads++
	return true
}

// RecordMigration accounts one migration I/O (read from a source or write
// to a target during reorganization).
func (d *Disk) RecordMigration() { d.migrated++ }

// RecordFailoverRead accounts a read served on this disk on behalf of a
// block homed elsewhere — a mirror read or a parity-reconstruction source
// read. It counts against the same per-round read tally as direct reads.
func (d *Disk) RecordFailoverRead() { d.reads++ }

// RoundLoad reports the I/Os recorded since the last ResetRound: stream
// reads, block writes, and migration I/Os.
func (d *Disk) RoundLoad() (reads, writes, migrated int) {
	return d.reads, d.writes, d.migrated
}

// ResetRound clears the per-round counters.
func (d *Disk) ResetRound() {
	d.reads, d.writes, d.migrated = 0, 0, 0
}

// Blocks returns the stored block IDs in ascending order, the same on every
// run: Fail's lost-block list, and what is planned from it, is reproducible.
func (d *Disk) Blocks() []BlockID { return d.blocks.ids() }

// Array is an ordered collection of disks addressed by logical index, with
// stable per-disk identities preserved across removals — the physical layer
// the placement strategies decide over.
type Array struct {
	disks  []*Disk
	nextID int
}

// NewArray creates an array of n identical disks with IDs 0..n-1.
func NewArray(n int, profile Profile) (*Array, error) {
	if n < 1 {
		return nil, fmt.Errorf("disk: array needs at least 1 disk, got %d", n)
	}
	a := &Array{}
	for i := 0; i < n; i++ {
		a.disks = append(a.disks, New(a.nextID, profile))
		a.nextID++
	}
	return a, nil
}

// N returns the number of disks.
func (a *Array) N() int { return len(a.disks) }

// Disk returns the disk at a logical index.
func (a *Array) Disk(logical int) (*Disk, error) {
	if logical < 0 || logical >= len(a.disks) {
		return nil, fmt.Errorf("disk: logical index %d outside [0,%d)", logical, len(a.disks))
	}
	return a.disks[logical], nil
}

// Add appends count new disks with the given profile; heterogeneous arrays
// arise by adding groups with different profiles.
func (a *Array) Add(count int, profile Profile) ([]*Disk, error) {
	if count < 1 {
		return nil, fmt.Errorf("%w: got %d", ErrAddNone, count)
	}
	added := make([]*Disk, count)
	for i := range added {
		d := New(a.nextID, profile)
		a.nextID++
		a.disks = append(a.disks, d)
		added[i] = d
	}
	return added, nil
}

// Remove detaches the disks at the given logical indices (sorted or not)
// and returns them — still holding their blocks, so the reorganization
// engine can drain them. Survivors are compacted in order.
func (a *Array) Remove(indices ...int) ([]*Disk, error) {
	if len(indices) == 0 {
		return nil, ErrRemoveNone
	}
	if len(indices) >= len(a.disks) {
		return nil, fmt.Errorf("%w: removing %d of %d disks", ErrRemoveAll, len(indices), len(a.disks))
	}
	gone := make(map[int]bool, len(indices))
	for _, i := range indices {
		if i < 0 || i >= len(a.disks) {
			return nil, fmt.Errorf("disk: logical index %d outside [0,%d)", i, len(a.disks))
		}
		if gone[i] {
			return nil, fmt.Errorf("disk: duplicate removal index %d", i)
		}
		if a.disks[i].Health() == Rebuilding {
			return nil, fmt.Errorf("%w: disk %d (logical %d)", ErrDiskRebuilding, a.disks[i].ID(), i)
		}
		gone[i] = true
	}
	var removed []*Disk
	survivors := a.disks[:0]
	for i, d := range a.disks {
		if gone[i] {
			removed = append(removed, d)
		} else {
			survivors = append(survivors, d)
		}
	}
	a.disks = survivors
	return removed, nil
}

// Degraded reports whether any disk is not Healthy — the array is serving
// in degraded mode and reads may need redundant copies.
func (a *Array) Degraded() bool {
	for _, d := range a.disks {
		if d.Health() != Healthy {
			return true
		}
	}
	return false
}

// TotalBlocks returns the number of blocks across all disks.
func (a *Array) TotalBlocks() int {
	n := 0
	for _, d := range a.disks {
		n += d.Len()
	}
	return n
}

// Loads returns the per-disk block counts in logical order.
func (a *Array) Loads() []int {
	out := make([]int, len(a.disks))
	for i, d := range a.disks {
		out[i] = d.Len()
	}
	return out
}

// ResetRounds clears the round counters of every disk.
func (a *Array) ResetRounds() {
	for _, d := range a.disks {
		d.ResetRound()
	}
}
