package scaddar

import (
	"fmt"

	"scaddar/internal/prng"
)

// SourceFactory builds the per-object pseudo-random generator p_r(s_m) for a
// seed. All objects of a server share one factory so their sequences come
// from the same generator family and width.
type SourceFactory func(seed uint64) prng.Source

// Locator binds a History to per-object pseudo-random sequences: it is the
// complete access function AF() of the paper. Given an object's seed s_m and
// a block index i, it regenerates X(i)_0 = p_r(s_m) at position i and remaps
// it through every recorded scaling operation, yielding the block's current
// logical disk. No directory is consulted; the only state is the operation
// log and the seed.
//
// Locator memoizes one Indexed sequence per seed, so with a counter-based
// generator a lookup costs O(j) for j scaling operations, and with a
// sequential generator O(j) plus a one-time O(i) prefix generation.
type Locator struct {
	hist    *History
	factory SourceFactory
	bits    uint
	seqs    map[uint64]prng.Indexed
}

// NewLocator creates a Locator over the given history. factory must produce
// generators of a fixed width; the width of the first generator is recorded
// and later mismatches are rejected.
func NewLocator(hist *History, factory SourceFactory) (*Locator, error) {
	if hist == nil {
		return nil, fmt.Errorf("scaddar: locator needs a history")
	}
	if factory == nil {
		return nil, fmt.Errorf("scaddar: locator needs a source factory")
	}
	hist.Compile()
	return &Locator{hist: hist, factory: factory, seqs: make(map[uint64]prng.Indexed)}, nil
}

// Bits returns the generator width, or 0 if no sequence has been created yet.
func (l *Locator) Bits() uint { return l.bits }

// sequence returns the memoized indexed sequence for a seed.
func (l *Locator) sequence(seed uint64) (prng.Indexed, error) {
	if seq, ok := l.seqs[seed]; ok {
		return seq, nil
	}
	src := l.factory(seed)
	if l.bits == 0 {
		l.bits = src.Bits()
	} else if src.Bits() != l.bits {
		return nil, fmt.Errorf("scaddar: factory width changed from %d to %d bits", l.bits, src.Bits())
	}
	seq := prng.EnsureIndexed(src)
	l.seqs[seed] = seq
	return seq, nil
}

// X0 returns the block's original random number X(i)_0.
func (l *Locator) X0(seed uint64, block uint64) (uint64, error) {
	seq, err := l.sequence(seed)
	if err != nil {
		return 0, err
	}
	return seq.At(block), nil
}

// Disk returns the current logical disk of block i of the object with the
// given seed — AF() in full.
func (l *Locator) Disk(seed uint64, block uint64) (int, error) {
	x0, err := l.X0(seed, block)
	if err != nil {
		return 0, err
	}
	return l.hist.Locate(x0), nil
}

// DiskAt returns the block's logical disk after only the first j operations.
func (l *Locator) DiskAt(seed uint64, block uint64, j int) (int, error) {
	x0, err := l.X0(seed, block)
	if err != nil {
		return 0, err
	}
	return l.hist.DiskAt(x0, j), nil
}
