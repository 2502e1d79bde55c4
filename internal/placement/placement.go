// Package placement defines a common interface over block-placement
// strategies for scalable continuous-media servers and implements every
// scheme the SCADDAR paper builds on, compares against, or discusses:
//
//   - Scaddar: the paper's contribution (REMAP chains over pseudo-random
//     placement);
//   - Naive: the single-operation scheme of Section 4.1 that reuses the same
//     random number at every operation and therefore skews after the second
//     one (Figure 1);
//   - Reshuffle: complete redistribution X_0 mod N_j — perfectly random but
//     moves almost every block (Appendix A's second initial approach);
//   - RoundRobin: constrained round-robin striping, which must move nearly
//     all blocks on scaling (the Ghandeharizadeh/Kim comparison in Related
//     Work);
//   - Directory: random placement with an explicit block directory
//     (Appendix A's first initial approach) — optimal movement and perfect
//     randomness, at the cost of per-block state;
//   - Consistent: consistent hashing with virtual nodes, included as a
//     modern comparator for the same remapping problem.
//
// All strategies present the same Strategy interface, so the experiment
// harness can subject each to identical scaling schedules and measure block
// movement (RO1), load balance (RO2), and access cost (AO1) uniformly.
package placement

import (
	"fmt"

	"scaddar/internal/prng"
)

// BlockRef identifies one block: the seed of its object and its index within
// the object. Strategies must be pure functions of (BlockRef, scaling
// history, own randomness) so lookups are reproducible.
type BlockRef struct {
	Seed  uint64
	Index uint64
}

// Strategy is a block-placement scheme over an array of logical disks
// 0..N-1 that supports scaling operations.
//
// Disk must be deterministic between scaling operations: two calls with the
// same block return the same disk. Strategies are not safe for concurrent
// mutation; concurrent Disk calls between mutations are safe for the
// stateless schemes but not for Directory (which assigns lazily) — the
// simulator serializes access.
type Strategy interface {
	// Name returns a short stable identifier, e.g. "scaddar".
	Name() string
	// N returns the current number of disks.
	N() int
	// Disk returns the block's current logical disk in [0, N()).
	Disk(b BlockRef) int
	// AddDisks appends a group of count disks.
	AddDisks(count int) error
	// RemoveDisks removes the disk group with the given logical indices
	// (current numbering); survivors are renumbered compactly.
	RemoveDisks(indices ...int) error
}

// X0Func produces the original pseudo-random number X(i)_0 of a block. It is
// how randomized strategies consume the per-object sequences p_r(s_m).
type X0Func func(b BlockRef) uint64

// NewX0Func builds an X0Func over a generator factory, memoizing one indexed
// sequence per object seed.
func NewX0Func(factory func(seed uint64) prng.Source) X0Func {
	seqs := make(map[uint64]prng.Indexed)
	return func(b BlockRef) uint64 {
		seq, ok := seqs[b.Seed]
		if !ok {
			seq = prng.EnsureIndexed(factory(b.Seed))
			seqs[b.Seed] = seq
		}
		return seq.At(b.Index)
	}
}

// BatchStrategy is a Strategy that can resolve many blocks in one call,
// typically by compiling its lookup function once and fanning the sweep
// across CPU cores (Scaddar does both). DiskBatch must be equivalent to
// calling Disk per block: out[i] = Disk(blocks[i]), with out at least as
// long as blocks. Bulk consumers (Snapshot, the reorg planner) use it
// automatically when available.
type BatchStrategy interface {
	Strategy
	// DiskBatch resolves blocks[i] into out[i] for every i.
	DiskBatch(blocks []BlockRef, out []int)
}

// Snapshot records the disk of every block under a strategy, for measuring
// movement across a scaling operation.
func Snapshot(s Strategy, blocks []BlockRef) []int {
	disks := make([]int, len(blocks))
	SnapshotInto(s, blocks, disks)
	return disks
}

// SnapshotInto is Snapshot into a buffer the caller reuses, at least as long
// as blocks. A BatchStrategy resolves the sweep in bulk (compiled and parallel
// for SCADDAR); the result is identical to the serial per-block loop.
func SnapshotInto(s Strategy, blocks []BlockRef, disks []int) {
	if bs, ok := s.(BatchStrategy); ok {
		bs.DiskBatch(blocks, disks)
		return
	}
	for i, b := range blocks {
		disks[i] = s.Disk(b)
	}
}

// LoadVector counts blocks per logical disk under a strategy.
func LoadVector(s Strategy, blocks []BlockRef) []int {
	counts := make([]int, s.N())
	for _, d := range Snapshot(s, blocks) {
		counts[d]++
	}
	return counts
}

// Moves compares two per-block disk snapshots and returns the number of
// blocks whose disk changed. The snapshots must be over the same block list.
// Logical renumbering after removals is the caller's concern: compare
// physical identities (see MovedPhysical) when removals are involved.
func Moves(before, after []int) (int, error) {
	if len(before) != len(after) {
		return 0, fmt.Errorf("placement: snapshot lengths %d and %d differ", len(before), len(after))
	}
	n := 0
	for i := range before {
		if before[i] != after[i] {
			n++
		}
	}
	return n, nil
}

// SurvivorMap builds the mapping old-logical-index -> new-logical-index for
// a removal of the (sorted, distinct) removed indices; removed disks map to
// -1. It lets callers compare snapshots across a removal without counting
// pure renumbering as movement.
func SurvivorMap(nBefore int, removed []int) []int {
	m := make([]int, nBefore)
	ri, shift := 0, 0
	for i := 0; i < nBefore; i++ {
		if ri < len(removed) && removed[ri] == i {
			m[i] = -1
			ri++
			shift++
			continue
		}
		m[i] = i - shift
	}
	return m
}

// MovedPhysical counts blocks whose *physical* disk changed across a removal:
// a block on a surviving disk that kept its (renumbered) position did not
// move. before is the pre-removal snapshot, after the post-removal one, and
// removed the sorted removed indices in the pre-removal numbering.
func MovedPhysical(before, after []int, nBefore int, removed []int) (int, error) {
	if len(before) != len(after) {
		return 0, fmt.Errorf("placement: snapshot lengths %d and %d differ", len(before), len(after))
	}
	m := SurvivorMap(nBefore, removed)
	n := 0
	for i := range before {
		if m[before[i]] != after[i] {
			n++
		}
	}
	return n, nil
}

// OptimalMoveFraction returns z_j of Definition 3.4: the minimum fraction of
// all blocks that must move to rebalance a scaling operation from nBefore to
// nAfter disks.
func OptimalMoveFraction(nBefore, nAfter int) float64 {
	if nAfter > nBefore {
		return float64(nAfter-nBefore) / float64(nAfter)
	}
	return float64(nBefore-nAfter) / float64(nBefore)
}
