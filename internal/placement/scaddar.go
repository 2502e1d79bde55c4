package placement

import (
	"fmt"
	"math/bits"

	"scaddar/internal/par"
	"scaddar/internal/prng"
	"scaddar/internal/scaddar"
)

// Scaddar adapts the core SCADDAR remap chain to the Strategy interface.
//
// Beyond the paper's REMAP chain it implements the paper's own prescription
// for a chain that has exhausted its randomness budget: "In this case, we
// suggest a redistribution of all the blocks" (Section 4). Rebaseline
// performs that complete redistribution logically: the operation log resets
// to a fresh single-epoch history over the current disk count and every
// block draws a brand-new random number (its X0 mixed with the epoch
// counter), restoring the full b-bit range at the cost of moving almost all
// blocks once.
type Scaddar struct {
	hist  *scaddar.History
	x0    X0Func
	epoch uint64
	bits  uint
}

// NewScaddar creates a SCADDAR strategy over n0 initial disks with the given
// block-randomness source. The generator width defaults to 64 bits; when the
// x0 source is narrower, call SetBits so post-Rebaseline values stay within
// the same range the Budget accounts for.
func NewScaddar(n0 int, x0 X0Func) (*Scaddar, error) {
	h, err := scaddar.NewHistory(n0)
	if err != nil {
		return nil, err
	}
	return &Scaddar{hist: h, x0: x0, bits: 64}, nil
}

// RestoreScaddar rebuilds a strategy from its persisted or wire form: the
// operation log as it stood, the count of complete redistributions before
// it, and the generator width (0 means the 64-bit default). A Rebaseline
// only restarts the log and bumps the epoch counter, so the epoch is set
// directly — the cost does not depend on a number a peer may have sent. The
// history is cloned; the History decoders have already re-validated it.
func RestoreScaddar(hist *scaddar.History, epoch uint64, bits uint, x0 X0Func) (*Scaddar, error) {
	if hist == nil || hist.N0() < 1 {
		return nil, fmt.Errorf("placement: restore needs a history over at least 1 disk")
	}
	s := &Scaddar{hist: hist.Clone(), x0: x0, epoch: epoch, bits: 64}
	if bits != 0 {
		if err := s.SetBits(bits); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// SetBits declares the width of the x0 source (1..64). Epoch-mixed values
// after a Rebaseline are truncated to this width, keeping the randomness
// budget honest for narrow generators.
func (s *Scaddar) SetBits(bits uint) error {
	if bits == 0 || bits > 64 {
		return fmt.Errorf("placement: scaddar bits %d outside [1,64]", bits)
	}
	s.bits = bits
	return nil
}

// Name returns "scaddar".
func (s *Scaddar) Name() string { return "scaddar" }

// N returns the current disk count.
func (s *Scaddar) N() int { return s.hist.N() }

// History exposes the underlying operation log (shared, not a copy).
func (s *Scaddar) History() *scaddar.History { return s.hist }

// Epoch returns the number of complete redistributions performed.
func (s *Scaddar) Epoch() uint64 { return s.epoch }

// Bits returns the declared width of the x0 source.
func (s *Scaddar) Bits() uint { return s.bits }

// blockX0 returns the block's effective random number in the current epoch:
// the raw X0 in epoch 0 (byte-for-byte the paper's scheme), an
// epoch-mixed value afterwards so each redistribution draws an independent
// fresh placement.
func (s *Scaddar) blockX0(b BlockRef) uint64 {
	x := s.x0(b)
	if s.epoch == 0 {
		return x
	}
	return epochMix(s.epoch, s.bits, x)
}

// epochMix is the post-Rebaseline transform: the raw value mixed with the
// epoch counter and truncated to the declared generator width.
func epochMix(epoch uint64, bits uint, x uint64) uint64 {
	return prng.Combine(epoch, x) >> (64 - bits)
}

// Disk locates the block through the REMAP chain.
func (s *Scaddar) Disk(b BlockRef) int { return s.hist.Locate(s.blockX0(b)) }

// DiskBatch resolves many blocks at once (placement.BatchStrategy): the
// per-object random numbers are drawn serially (the X0 source memoizes per
// seed and is not concurrency-safe) and parked in out, which is as wide; the
// compiled REMAP chain then sweeps them, across GOMAXPROCS workers in
// disjoint ranges when the batch is worth it. Only that fan-out allocates, and
// the output is byte-identical to per-block Disk calls at any core count.
func (s *Scaddar) DiskBatch(blocks []BlockRef, out []int) {
	if len(out) < len(blocks) {
		panic("placement: DiskBatch output shorter than input")
	}
	chain := s.hist.Compile()
	if bits.UintSize < 64 { // an int cannot park an X0
		for i, b := range blocks {
			out[i] = chain.Locate(s.blockX0(b))
		}
		return
	}
	for i, b := range blocks {
		out[i] = int(s.blockX0(b))
	}
	if len(blocks) < par.MinParallel || par.Workers() < 2 {
		remapParked(chain, out[:len(blocks)])
		return
	}
	par.Ranges(len(blocks), func(lo, hi int) { remapParked(chain, out[lo:hi]) })
}

// remapParked replaces each X0 parked in out by its disk, a stack chunk at a time.
func remapParked(chain *scaddar.CompiledChain, out []int) {
	var xs [256]uint64
	for len(out) > 0 {
		n := min(len(xs), len(out))
		for i := range xs[:n] {
			xs[i] = uint64(out[i])
		}
		chain.LocateBatch(xs[:n], out[:n])
		out = out[n:]
	}
}

// Rebaseline performs the complete redistribution the paper recommends once
// the Section 4.3 budget is exhausted: the operation log is cleared (N0
// becomes the current disk count) and every block re-places with fresh
// randomness. Nearly all blocks move; afterwards the full random range is
// available again and the caller should Reset its Budget.
func (s *Scaddar) Rebaseline() error {
	h, err := scaddar.NewHistory(s.hist.N())
	if err != nil {
		return err
	}
	s.hist = h
	s.epoch++
	return nil
}

// AddDisks records an addition operation.
func (s *Scaddar) AddDisks(count int) error {
	_, err := s.hist.Add(count)
	return err
}

// RemoveDisks records a removal operation.
func (s *Scaddar) RemoveDisks(indices ...int) error {
	_, err := s.hist.Remove(indices...)
	return err
}
