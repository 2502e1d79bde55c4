package scaddar

import (
	"fmt"
	"math"
	"sort"
)

// OpKind distinguishes the two scaling operations of Definition 3.3.
type OpKind uint8

// Scaling operation kinds.
const (
	// OpAdd grows the array by a disk group.
	OpAdd OpKind = iota + 1
	// OpRemove shrinks the array by a disk group.
	OpRemove
)

// String returns "add" or "remove".
func (k OpKind) String() string {
	switch k {
	case OpAdd:
		return "add"
	case OpRemove:
		return "remove"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one recorded scaling operation. For OpAdd, Count disks were appended
// (logical indices NBefore..NAfter-1). For OpRemove, Removed lists the
// removed logical indices in the pre-operation numbering, sorted ascending.
type Op struct {
	Kind    OpKind `json:"kind"`
	NBefore int    `json:"nBefore"`
	NAfter  int    `json:"nAfter"`
	Removed []int  `json:"removed,omitempty"`
}

// Count returns the number of disks in the operation's disk group.
func (o Op) Count() int {
	if o.Kind == OpAdd {
		return o.NAfter - o.NBefore
	}
	return o.NBefore - o.NAfter
}

// History is the ordered log of scaling operations applied to an array that
// started with N0 disks. Together with per-object seeds it is the ONLY state
// SCADDAR persists — the paper's "storage structure for recording scaling
// operations" — and it is what both the redistribution function RF() and the
// access function AF() consult.
//
// A History is not safe for concurrent mutation; concurrent readers are fine
// once mutation stops. The continuous-media server layer serializes scaling
// operations, which the paper assumes to be infrequent events.
//
// Lookups (Locate, Final, Moved) run on a compiled form of the chain —
// multiply-shift reciprocals instead of hardware divisions, flat
// survivor-rank tables instead of removed-list scans (see compiled.go).
// Every mutation bumps an internal version counter that invalidates the
// compiled form; the next lookup transparently recompiles. Call Compile
// directly to hold a pinned compiled chain across many lookups.
type History struct {
	n0      int
	ops     []Op
	version uint64
	cc      *chainCache
}

// maxDisks bounds a History's disk count, far above any array and below
// where N + count could overflow an int. It is the bound the binary codec
// holds every count to (frame.Cursor.Int), kept here so that the JSON codec
// and the API accept exactly the histories the binary codec can carry.
const maxDisks = math.MaxInt >> 1

// NewHistory creates a History for an array that starts with n0 >= 1 disks
// and no scaling operations.
func NewHistory(n0 int) (*History, error) {
	if n0 < 1 || n0 > maxDisks {
		return nil, fmt.Errorf("scaddar: initial disk count %d, need 1 to %d", n0, maxDisks)
	}
	return &History{n0: n0, cc: &chainCache{}}, nil
}

// MustNewHistory is NewHistory for statically valid arguments; it panics on
// error.
func MustNewHistory(n0 int) *History {
	h, err := NewHistory(n0)
	if err != nil {
		panic(err)
	}
	return h
}

// N0 returns the initial disk count.
func (h *History) N0() int { return h.n0 }

// N returns the current disk count N_j.
func (h *History) N() int { return h.NAt(len(h.ops)) }

// NAt returns the disk count after the first j operations; NAt(0) == N0.
func (h *History) NAt(j int) int {
	if j == 0 {
		return h.n0
	}
	return h.ops[j-1].NAfter
}

// Ops returns the number of recorded scaling operations.
func (h *History) Ops() int { return len(h.ops) }

// Op returns the j-th operation (1-based, matching the paper's numbering of
// scaling operations 1..j).
func (h *History) Op(j int) Op { return h.ops[j-1] }

// Add records the addition of a disk group of count disks and returns the
// recorded operation.
func (h *History) Add(count int) (Op, error) {
	if count < 1 || count > maxDisks-h.N() {
		return Op{}, fmt.Errorf("scaddar: add of %d disks to %d, need at least 1 and at most %d in all", count, h.N(), maxDisks)
	}
	op := Op{Kind: OpAdd, NBefore: h.N(), NAfter: h.N() + count}
	h.ops = append(h.ops, op)
	h.version++
	return op, nil
}

// Remove records the removal of the disk group with the given logical
// indices (in the current numbering) and returns the recorded operation. At
// least one disk must survive. The indices may be given in any order but
// must be distinct and in range.
func (h *History) Remove(indices ...int) (Op, error) {
	n := h.N()
	if len(indices) == 0 {
		return Op{}, fmt.Errorf("scaddar: removal of empty disk group")
	}
	if len(indices) >= n {
		return Op{}, fmt.Errorf("scaddar: removing %d of %d disks leaves none", len(indices), n)
	}
	removed := make([]int, len(indices))
	copy(removed, indices)
	sort.Ints(removed)
	for i, r := range removed {
		if r < 0 || r >= n {
			return Op{}, fmt.Errorf("scaddar: removal index %d outside [0,%d)", r, n)
		}
		if i > 0 && removed[i-1] == r {
			return Op{}, fmt.Errorf("scaddar: duplicate removal index %d", r)
		}
	}
	op := Op{Kind: OpRemove, NBefore: n, NAfter: n - len(removed), Removed: removed}
	h.ops = append(h.ops, op)
	h.version++
	return op, nil
}

// Step applies the j-th operation's REMAP to a random value that is valid
// after j-1 operations, returning the new value and whether the block moved.
func (h *History) Step(j int, x uint64) (xj uint64, moved bool) {
	op := h.ops[j-1]
	switch op.Kind {
	case OpAdd:
		return remapAdd(x, op.NBefore, op.NAfter)
	case OpRemove:
		return remapRemove(x, op.NBefore, op.NAfter, op.Removed)
	default:
		panic(fmt.Sprintf("scaddar: corrupt history: %v", op.Kind))
	}
}

// Locate is the access function AF(): it remaps the block's original random
// number x0 through every recorded operation and returns the block's current
// logical disk index. Cost is O(j) integer operations (AO1), with every
// division compiled to a multiply-shift reciprocal (see Compile).
func (h *History) Locate(x0 uint64) int {
	return h.Compile().Locate(x0)
}

// Final returns both the fully remapped random value X_j and the block's
// current logical disk.
func (h *History) Final(x0 uint64) (xj uint64, disk int) {
	return h.Compile().Final(x0)
}

// DiskAt returns the block's logical disk after only the first j operations;
// DiskAt(x0, 0) is the initial placement X0 mod N0.
func (h *History) DiskAt(x0 uint64, j int) int {
	x := x0
	for i := 1; i <= j; i++ {
		x, _ = h.Step(i, x)
	}
	return int(x % uint64(h.NAt(j)))
}

// Trace returns the full remap chain X_0, X_1, ..., X_j for a block — the
// sequence the paper uses to reason about block locations. Element i is the
// random value after i operations.
func (h *History) Trace(x0 uint64) []uint64 {
	xs := make([]uint64, len(h.ops)+1)
	xs[0] = x0
	x := x0
	for j := 1; j <= len(h.ops); j++ {
		x, _ = h.Step(j, x)
		xs[j] = x
	}
	return xs
}

// Moved reports whether the most recent operation moved the block with
// original random value x0, and the block's disks before and after that
// operation. It is the predicate RF() uses to build move plans.
func (h *History) Moved(x0 uint64) (moved bool, before, after int) {
	return h.Compile().Moved(x0)
}

// Clone returns a deep copy of the history. The clone carries its own
// compiled-chain cache, so compiling one never disturbs the other.
func (h *History) Clone() *History {
	c := &History{n0: h.n0, ops: make([]Op, len(h.ops)), version: h.version, cc: &chainCache{}}
	copy(c.ops, h.ops)
	for i := range c.ops {
		if len(h.ops[i].Removed) > 0 {
			c.ops[i].Removed = append([]int(nil), h.ops[i].Removed...)
		}
	}
	return c
}

// OpsProduct returns the product N0·N1·…·Nj as the paper's μ_j, but clamped
// to uint64 range; ok is false if the product overflowed. Budget tracks the
// exact value with big integers; this cheap variant serves quick checks.
func (h *History) OpsProduct() (mu uint64, ok bool) {
	mu = uint64(h.n0)
	for _, op := range h.ops {
		n := uint64(op.NAfter)
		if mu > ^uint64(0)/n {
			return 0, false
		}
		mu *= n
	}
	return mu, true
}

// String summarizes the history, e.g. "N0=4 add(1)→5 remove(2)→3".
func (h *History) String() string {
	s := fmt.Sprintf("N0=%d", h.n0)
	for _, op := range h.ops {
		s += fmt.Sprintf(" %s(%d)→%d", op.Kind, op.Count(), op.NAfter)
	}
	return s
}
