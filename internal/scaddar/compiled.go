package scaddar

import "sync/atomic"

// This file compiles the interpreted REMAP chain into straight-line integer
// arithmetic. The interpreted path (History.Step) pays, per operation and
// per lookup: a kind switch, two or three hardware divisions by the
// operation's disk counts, and — for removals — a linear scan over the
// removed-index list. All of those inputs are fixed the moment the
// operation is recorded, so a History can be compiled once into:
//
//   - Granlund–Montgomery multiply-shift reciprocals for every div/mod
//     (see magicdiv.go), and
//   - a flat survivor-rank table new[r] → (newIndex | gone) per removal,
//     replacing the per-lookup scan with one indexed load.
//
// The compiled form is immutable and therefore trivially safe for any
// number of concurrent readers; a version counter on History invalidates it
// when the log grows (see History.Compile).

// survivorTableBudget caps the total survivor-rank table entries one
// compiled chain may materialize. Real histories (arrays of thousands of
// disks, tens of operations) use a tiny fraction of it; only forged or
// synthetic logs — huge additions followed by long runs of removals, which
// the codecs accept — can exhaust it. Removal operations beyond the budget
// fall back to binary search over the removed list, keeping Compile's
// memory bounded at a few megabytes no matter what the log claims.
const survivorTableBudget = 1 << 20

// compiledOp is one REMAP operation lowered to precomputed arithmetic over
// the chain state (Q, d) — see CompiledChain.
type compiledOp struct {
	kind OpKind
	// nBefore is N_{j-1}: an addition moves a block exactly when its fresh
	// draw t = Q mod N_j lands on an added disk, t >= nBefore.
	nBefore uint64
	// dAfter divides by N_j, the only reciprocal an operation needs.
	dAfter magicDiv
	// survivor is the removal's rank table: survivor[r] is disk r's index
	// in the compacted post-removal numbering, or -1 if r was removed.
	// nil for additions and for removals past survivorTableBudget.
	survivor []int32
	// removed backs the binary-search fallback when survivor is nil.
	removed []int
}

// CompiledChain is an immutable compiled form of a History's REMAP chain.
// Locate, Final, Moved, and LocateBatch are allocation-free and safe for
// unlimited concurrent readers. A chain answers for the exact log contents
// it was compiled from; once the source History records another operation,
// Valid reports false and History.Compile builds a fresh chain.
//
// The chain carries a block's random value as the pair (Q, d) with
// X = Q·N + d, d its disk and Q the randomness left for later operations,
// instead of as X. Every REMAP begins with q = X div N_{j-1} and
// r = X mod N_{j-1}, and the step before produced X as q'·N_{j-1} + disk —
// so that division only recomputes what was just known. On the pair:
//
//	start:    (Q, d) = divmod(X_0, N_0)
//	addition: Q' = Q div N_j, t = Q mod N_j; d' = t if t >= N_{j-1}, else d
//	removal:  d survives: (Q, new(d)); d removed: (Q', d') = divmod(Q, N_j)
//
// which is one reciprocal multiply per operation (none for a block a removal
// leaves in place), X_j = Q·N_j + d at every prefix j, and no closing mod.
type CompiledChain struct {
	hist    *History
	version uint64
	n       uint64   // N_j, the current disk count
	d0      magicDiv // divides by N_0: X_0 → (Q, d)
	ops     []compiledOp
}

// chainCache is the holder History keeps its compiled form in. It is a
// separate allocation (not an embedded atomic) so the codecs' whole-struct
// assignment of History stays legal, and so concurrent readers can publish
// a freshly compiled chain without coordinating.
type chainCache struct {
	p atomic.Pointer[CompiledChain]
}

// Version returns the history's mutation counter. Every recorded operation
// (and every codec decode) increases it; a CompiledChain is valid exactly
// while its recorded version matches.
func (h *History) Version() uint64 { return h.version }

// Compile returns a compiled chain for the history's current contents,
// reusing the cached one when it is still valid. Readers may call Compile
// concurrently with each other (compilation is deterministic, so a racing
// publish is harmless); like all History reads it must not run concurrently
// with mutation.
func (h *History) Compile() *CompiledChain {
	if c := h.cc.p.Load(); c != nil && c.version == h.version {
		return c
	}
	c := compileChain(h)
	h.cc.p.Store(c)
	return c
}

// compileChain lowers every recorded operation.
func compileChain(h *History) *CompiledChain {
	c := &CompiledChain{
		hist:    h,
		version: h.version,
		n:       uint64(h.N()),
		d0:      newMagicDiv(uint64(h.n0)),
		ops:     make([]compiledOp, len(h.ops)),
	}
	budget := survivorTableBudget
	for i, op := range h.ops {
		co := compiledOp{
			kind:    op.Kind,
			nBefore: uint64(op.NBefore),
			dAfter:  newMagicDiv(uint64(op.NAfter)),
		}
		if op.Kind == OpRemove {
			if op.NBefore <= budget {
				co.survivor = survivorTable(op.NBefore, op.Removed)
				budget -= op.NBefore
			} else {
				co.removed = op.Removed
			}
		}
		c.ops[i] = co
	}
	return c
}

// survivorTable materializes the paper's new() function for one removal:
// t[r] is the compacted index of pre-removal disk r, or -1 if removed.
func survivorTable(nBefore int, removed []int) []int32 {
	t := make([]int32, nBefore)
	ri, shift := 0, int32(0)
	for r := 0; r < nBefore; r++ {
		if ri < len(removed) && removed[ri] == r {
			t[r] = -1
			ri++
			shift++
			continue
		}
		t[r] = int32(r) - shift
	}
	return t
}

// survivorSearch is the table-free fallback: binary search over the sorted
// removed list for rank and membership.
func survivorSearch(r uint64, removed []int) (newIndex uint64, gone bool) {
	lo, hi := 0, len(removed)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if uint64(removed[mid]) < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(removed) && uint64(removed[lo]) == r {
		return 0, true
	}
	return r - uint64(lo), false
}

// Valid reports whether the chain still matches its source history, i.e.
// no operation has been recorded since compilation.
func (c *CompiledChain) Valid() bool { return c.version == c.hist.version }

// N returns the disk count the chain locates into.
func (c *CompiledChain) N() int { return int(c.n) }

// Ops returns the number of compiled operations (the paper's j).
func (c *CompiledChain) Ops() int { return len(c.ops) }

// add is the addition step on the chain state: the fresh draw t = q mod N_j
// decides, and the quotient is what remains for later operations. It is
// written to stay inside the compiler's inlining budget (the remainder by
// hand rather than through divmod): walk and LocateBatch call it per block
// per operation.
func (op *compiledOp) add(q, d uint64) (q2, d2 uint64) {
	q2 = op.dAfter.div(q)
	if t := q - q2*op.dAfter.d; t >= op.nBefore {
		d = t
	}
	return q2, d
}

// remove is the removal step: a block on a surviving disk keeps its
// quotient and takes the disk's compacted index; a block on a removed disk
// spends a fresh draw on a uniform choice among the survivors.
func (op *compiledOp) remove(q, d uint64) (q2, d2 uint64, moved bool) {
	if op.survivor != nil {
		if nr := op.survivor[d]; nr >= 0 {
			return q, uint64(nr), false
		}
	} else if nr, gone := survivorSearch(d, op.removed); !gone {
		return q, nr, false
	}
	q2, d2 = op.dAfter.divmod(q)
	return q2, d2, true
}

// step applies one compiled operation to the chain state (q, d).
func (op *compiledOp) step(q, d uint64) (q2, d2 uint64, moved bool) {
	if op.kind == OpAdd {
		q2, d2 = op.add(q, d)
		return q2, d2, d2 >= op.nBefore
	}
	return op.remove(q, d)
}

// walk remaps x0 through the first len(ops) operations.
func (c *CompiledChain) walk(x0 uint64, ops []compiledOp) (q, d uint64) {
	q, d = c.d0.divmod(x0)
	for i := range ops {
		if op := &ops[i]; op.kind == OpAdd {
			q, d = op.add(q, d)
		} else {
			q, d, _ = op.remove(q, d)
		}
	}
	return q, d
}

// Locate is the compiled access function AF(): the block's current logical
// disk, allocation-free in O(j) multiply-shift operations.
func (c *CompiledChain) Locate(x0 uint64) int {
	_, d := c.walk(x0, c.ops)
	return int(d)
}

// Final returns the fully remapped random value X_j and the block's current
// logical disk.
func (c *CompiledChain) Final(x0 uint64) (xj uint64, disk int) {
	q, d := c.walk(x0, c.ops)
	return q*c.n + d, int(d)
}

// Moved reports whether the most recent operation moved the block, and its
// disks before and after that operation — the compiled form of
// History.Moved, the predicate RF() builds move plans with.
func (c *CompiledChain) Moved(x0 uint64) (moved bool, before, after int) {
	if len(c.ops) == 0 {
		_, d := c.walk(x0, nil)
		return false, int(d), int(d)
	}
	last := len(c.ops) - 1
	q, d := c.walk(x0, c.ops[:last])
	_, after64, moved := c.ops[last].step(q, d)
	return moved, int(d), int(after64)
}

// batchChunk is the block count LocateBatch processes per pass. Chunks keep
// the working set inside L1 while letting each operation's inner loop run
// branch-uniform over many blocks.
const batchChunk = 256

// LocateBatch locates len(x0s) blocks into out, allocation-free:
// out[i] = Locate(x0s[i]). It iterates operation-major over fixed-size
// chunks, which is substantially faster than per-block Locate calls for
// bulk sweeps. out must be at least as long as x0s.
func (c *CompiledChain) LocateBatch(x0s []uint64, out []int) {
	if len(out) < len(x0s) {
		panic("scaddar: LocateBatch output shorter than input")
	}
	var qs, ds [batchChunk]uint64
	for base := 0; base < len(x0s); base += batchChunk {
		n := len(x0s) - base
		if n > batchChunk {
			n = batchChunk
		}
		for i, x0 := range x0s[base : base+n] {
			qs[i], ds[i] = c.d0.divmod(x0)
		}
		for oi := range c.ops {
			// The kind dispatch is hoisted out of the per-block loop, and
			// the table arm of remove written out: a call per block per
			// operation would double the sweep's cost.
			op := c.ops[oi]
			switch {
			case op.kind == OpAdd:
				for i := 0; i < n; i++ {
					qs[i], ds[i] = op.add(qs[i], ds[i])
				}
			case op.survivor != nil:
				for i := 0; i < n; i++ {
					if nr := op.survivor[ds[i]]; nr >= 0 {
						ds[i] = uint64(nr)
					} else {
						qs[i], ds[i] = op.dAfter.divmod(qs[i])
					}
				}
			default:
				for i := 0; i < n; i++ {
					qs[i], ds[i], _ = op.remove(qs[i], ds[i])
				}
			}
		}
		for i := 0; i < n; i++ {
			out[base+i] = int(ds[i])
		}
	}
}
