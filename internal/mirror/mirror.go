// Package mirror implements the fault-tolerance extension sketched in the
// paper's Section 6: "data mirroring may be a simple solution with SCADDAR.
// Mirrored blocks could be placed at a fixed offset determined by a function
// f(N_j). For example, f(N_j) could return N_j/2 as an offset."
//
// A Mirrored placement wraps any placement.Strategy: the primary copy lives
// where the strategy says, the mirror copy at a fixed offset modulo the
// current disk count. Because the offset is a pure function of N_j, mirrors
// need no directory either — both copies are computable from the operation
// log — and the offset placement guarantees the two copies are always on
// different disks, so any single-disk failure leaves every block readable.
package mirror

import (
	"fmt"

	"scaddar/internal/placement"
)

// OffsetFunc returns the mirror offset for an array of n disks. The result
// is reduced modulo n; an effective offset of 0 (which would co-locate the
// copies) is rejected at lookup time.
type OffsetFunc func(n int) int

// HalfOffset is the paper's example f(N_j) = N_j/2, rounded up so it never
// degenerates to 0 for n >= 2.
func HalfOffset(n int) int {
	return (n + 1) / 2
}

// Mirrored derives primary and mirror locations for blocks placed by an
// underlying strategy.
type Mirrored struct {
	strat  placement.Strategy
	offset OffsetFunc
}

// New wraps a strategy with offset mirroring. offset defaults to HalfOffset
// when nil.
func New(strat placement.Strategy, offset OffsetFunc) (*Mirrored, error) {
	if strat == nil {
		return nil, fmt.Errorf("mirror: nil strategy")
	}
	if offset == nil {
		offset = HalfOffset
	}
	return &Mirrored{strat: strat, offset: offset}, nil
}

// N returns the current disk count.
func (m *Mirrored) N() int { return m.strat.N() }

// effectiveOffset validates and reduces the configured offset for n disks.
func (m *Mirrored) effectiveOffset() (int, error) {
	n := m.strat.N()
	if n < 2 {
		return 0, fmt.Errorf("mirror: mirroring needs at least 2 disks, have %d", n)
	}
	off := m.offset(n) % n
	if off < 0 {
		off += n
	}
	if off == 0 {
		return 0, fmt.Errorf("mirror: offset function yields 0 for %d disks; copies would co-locate", n)
	}
	return off, nil
}

// Mirror returns the block's mirror disk: (primary + f(N)) mod N.
func (m *Mirrored) Mirror(b placement.BlockRef) (int, error) {
	off, err := m.effectiveOffset()
	if err != nil {
		return 0, err
	}
	return (m.strat.Disk(b) + off) % m.strat.N(), nil
}

// Locate returns both copies of a block.
func (m *Mirrored) Locate(b placement.BlockRef) (primary, mirror int, err error) {
	mirror, err = m.Mirror(b)
	if err != nil {
		return 0, 0, err
	}
	return m.strat.Disk(b), mirror, nil
}

// ReadFrom picks the copy to serve a read given per-disk queue depths,
// choosing the shorter queue (ties go to the primary) — the load-smoothing
// benefit mirroring brings alongside fault tolerance.
func (m *Mirrored) ReadFrom(b placement.BlockRef, queueDepth []int) (int, error) {
	p, mir, err := m.Locate(b)
	if err != nil {
		return 0, err
	}
	if p >= len(queueDepth) || mir >= len(queueDepth) {
		return 0, fmt.Errorf("mirror: queue depths cover %d disks, need %d", len(queueDepth), m.N())
	}
	if queueDepth[mir] < queueDepth[p] {
		return mir, nil
	}
	return p, nil
}

// Available reports whether the block is readable when the given disks have
// failed.
func (m *Mirrored) Available(b placement.BlockRef, failed map[int]bool) (bool, error) {
	p, mir, err := m.Locate(b)
	if err != nil {
		return false, err
	}
	return !failed[p] || !failed[mir], nil
}

// SurvivalReport summarizes block availability under a failure set.
type SurvivalReport struct {
	// Blocks is the number of blocks examined.
	Blocks int
	// Readable is the number with at least one live copy.
	Readable int
	// DegradedReads is the number whose primary failed but whose mirror
	// survives (reads re-route).
	DegradedReads int
	// Lost is the number with both copies failed.
	Lost int
}

// Survive evaluates availability of a block universe under the given failed
// disk set.
func (m *Mirrored) Survive(blocks []placement.BlockRef, failed map[int]bool) (SurvivalReport, error) {
	var r SurvivalReport
	for _, b := range blocks {
		p, mir, err := m.Locate(b)
		if err != nil {
			return r, err
		}
		r.Blocks++
		switch {
		case !failed[p]:
			r.Readable++
		case !failed[mir]:
			r.Readable++
			r.DegradedReads++
		default:
			r.Lost++
		}
	}
	return r, nil
}

// StorageOverhead returns the space multiplier of this scheme (always 2 for
// mirroring; the method exists so reports can compare against parity
// schemes the paper leaves to future work).
func (m *Mirrored) StorageOverhead() float64 { return 2 }
