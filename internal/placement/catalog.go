package placement

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"scaddar/internal/prng"
	"scaddar/internal/scaddar"
)

// This file is the read path's one directory — and it is a directory of
// objects, never of blocks. Locating block i of object m needs m's seed,
// its extent and its generator p_r(s_m); everything after that is the
// paper's arithmetic. A Catalog resolves those three once per object, when
// the object set or the epoch changes, so that a lookup pays one hashed
// probe instead of a map probe for the extent, a second for the generator
// and a width check — per address, for facts that never differ between two
// addresses of one object.

// CatalogRow is one object as its owner records it: identity, placement
// seed and extent.
type CatalogRow struct {
	ID         int
	Seed       uint64
	Blocks     int
	BlockBytes int64
}

// CatalogObject is a row with its generator resolved.
type CatalogObject struct {
	CatalogRow
	// seq is the object's X0 sequence under the epoch the catalogue was
	// resolved for, safe for concurrent At calls; nil when the factory
	// built this object a generator of another width than the first's.
	seq prng.Indexed
}

// ErrGeneratorWidth is what a lookup of an object without a usable generator
// reports: the source factory built it one of another width than the
// catalogue's first object got — a misconfiguration, never a per-request
// condition.
var ErrGeneratorWidth = errors.New("placement: source factory changed generator width between objects")

// X0 returns the original random number of the object's block at index —
// epoch-mixed after a complete redistribution, exactly as Scaddar.Disk
// draws it. ok is false when the object's generator was refused
// (ErrGeneratorWidth).
func (o *CatalogObject) X0(index uint64) (x0 uint64, ok bool) {
	if o.seq == nil {
		return 0, false
	}
	return o.seq.At(index), true
}

// Catalog is an immutable table object ID → CatalogObject, safe for any
// number of concurrent readers. IDs may be any int: the table is
// open-addressed over a multiplicative hash, at most half full, with the
// rows themselves kept dense and sorted by ID.
type Catalog struct {
	rows  []CatalogObject
	index []int32 // slot → position in rows plus one; 0 is an empty slot
	shift uint    // 64 − log2(len(index))
	epoch uint64
	bits  uint
}

// slot is the home slot of an ID: Fibonacci hashing, the top bits of the
// product, so dense, strided and huge IDs all spread.
func (c *Catalog) slot(id int) int {
	return int(uint64(id) * 0x9E3779B97F4A7C15 >> c.shift)
}

// Find returns the object with the given ID, or nil.
func (c *Catalog) Find(id int) *CatalogObject {
	for h := c.slot(id); ; h = (h + 1) & (len(c.index) - 1) {
		k := c.index[h]
		if k == 0 {
			return nil
		}
		if o := &c.rows[k-1]; o.ID == id {
			return o
		}
	}
}

// Len returns the number of objects.
func (c *Catalog) Len() int { return len(c.rows) }

// Objects returns every object in ID order. The slice is the catalogue's
// own: callers must not modify it.
func (c *Catalog) Objects() []CatalogObject { return c.rows }

// ResolveCatalog builds the catalogue a concurrent reader locates through:
// every row's generator is drawn from factory — which must build the same
// family the strategy's X0Func was built from — made safe for concurrent
// use, and wrapped in the epoch transform Disk applies after a Rebaseline.
// The result stays correct until the object set, the epoch or the declared
// width changes (see Resolved); scaling operations do not touch it.
func (s *Scaddar) ResolveCatalog(factory scaddar.SourceFactory, rows []CatalogRow) (*Catalog, error) {
	if factory == nil {
		return nil, fmt.Errorf("placement: catalogue needs a source factory")
	}
	c := &Catalog{rows: make([]CatalogObject, len(rows)), epoch: s.epoch, bits: s.bits}
	for i, r := range rows {
		c.rows[i].CatalogRow = r
	}
	sort.Slice(c.rows, func(i, j int) bool { return c.rows[i].ID < c.rows[j].ID })
	slots := 1
	for slots < 2*len(rows) {
		slots <<= 1
	}
	c.index = make([]int32, slots)
	c.shift = uint(64 - bits.TrailingZeros(uint(slots)))
	var width uint
	for i := range c.rows {
		o := &c.rows[i]
		if i > 0 && c.rows[i-1].ID == o.ID {
			return nil, fmt.Errorf("placement: catalogue lists object %d twice", o.ID)
		}
		src := factory(o.Seed)
		if i == 0 {
			width = src.Bits()
		}
		if src.Bits() == width {
			o.seq = prng.EnsureConcurrentIndexed(src)
			if s.epoch > 0 {
				o.seq = &epochIndexed{inner: o.seq, epoch: s.epoch, bits: s.bits}
			}
		}
		h := c.slot(o.ID)
		for c.index[h] != 0 {
			h = (h + 1) & (slots - 1)
		}
		c.index[h] = int32(i + 1)
	}
	return c, nil
}

// Resolved reports whether c was resolved under the strategy's current
// epoch and declared width, i.e. whether its X0 values are still the ones
// Disk draws.
func (s *Scaddar) Resolved(c *Catalog) bool {
	return c != nil && c.epoch == s.epoch && c.bits == s.bits
}

// SnapshotChain returns the compiled REMAP chain of the operation log as it
// stands, compiled from a private clone: later scaling operations on the
// strategy neither change nor race with it, so it is a point-in-time access
// function for any number of concurrent readers.
func (s *Scaddar) SnapshotChain() *scaddar.CompiledChain { return s.hist.Clone().Compile() }

// epochIndexed applies the post-Rebaseline transform of blockX0 — mix the
// raw value with the epoch counter and truncate to the declared width — by
// index, so a sequence that was safe for concurrent use stays so and a
// counter-based one stays a pure function.
type epochIndexed struct {
	inner prng.Indexed
	epoch uint64
	bits  uint
}

func (s *epochIndexed) At(i uint64) uint64 { return epochMix(s.epoch, s.bits, s.inner.At(i)) }
func (s *epochIndexed) Next() uint64       { return epochMix(s.epoch, s.bits, s.inner.Next()) }
func (s *epochIndexed) Bits() uint         { return s.bits }
func (s *epochIndexed) Seed() uint64       { return s.inner.Seed() }
func (s *epochIndexed) Reset()             { s.inner.Reset() }
