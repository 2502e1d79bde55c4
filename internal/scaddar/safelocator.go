package scaddar

import (
	"fmt"
	"sync"

	"scaddar/internal/prng"
)

// SafeLocator is a Locator safe for concurrent lookups — the access pattern
// of a real continuous-media server, where many stream handlers resolve
// block locations in parallel.
//
// Lookups (X0, Disk, DiskAt) may run concurrently with each other. They
// must NOT run concurrently with mutations of the underlying History;
// scaling operations are rare, serialized events in this system (the cm
// layer performs them between rounds), so the caller provides that
// synchronization — typically by quiescing lookups around a scaling
// operation or by swapping in a cloned History.
//
// Lookups run on the history's compiled chain (multiply-shift reciprocals
// and survivor-rank tables; compiled eagerly at construction), so the
// steady-state read path does zero interpretation and zero allocation.
type SafeLocator struct {
	hist    *History
	factory SourceFactory

	mu   sync.Mutex // guards seqs creation and bits
	bits uint
	seqs sync.Map // uint64 seed -> prng.Indexed with concurrent-safe At
}

// NewSafeLocator creates a concurrent locator over the given history. The
// history's REMAP chain is compiled eagerly, so the very first concurrent
// lookup already runs the allocation-free multiply-shift path — the
// property the gateway's read path depends on.
func NewSafeLocator(hist *History, factory SourceFactory) (*SafeLocator, error) {
	if hist == nil {
		return nil, fmt.Errorf("scaddar: locator needs a history")
	}
	if factory == nil {
		return nil, fmt.Errorf("scaddar: locator needs a source factory")
	}
	hist.Compile()
	return &SafeLocator{hist: hist, factory: factory}, nil
}

// History returns the underlying operation log.
func (l *SafeLocator) History() *History { return l.hist }

// sequence returns (creating once) the concurrent-safe indexed sequence for
// a seed.
func (l *SafeLocator) sequence(seed uint64) (prng.Indexed, error) {
	if seq, ok := l.seqs.Load(seed); ok {
		return seq.(prng.Indexed), nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq, ok := l.seqs.Load(seed); ok { // lost the creation race
		return seq.(prng.Indexed), nil
	}
	src := l.factory(seed)
	if l.bits == 0 {
		l.bits = src.Bits()
	} else if src.Bits() != l.bits {
		return nil, fmt.Errorf("scaddar: factory width changed from %d to %d bits", l.bits, src.Bits())
	}
	seq := prng.EnsureConcurrentIndexed(src)
	l.seqs.Store(seed, seq)
	return seq, nil
}

// X0 returns the block's original random number X(i)_0.
func (l *SafeLocator) X0(seed uint64, block uint64) (uint64, error) {
	seq, err := l.sequence(seed)
	if err != nil {
		return 0, err
	}
	return seq.At(block), nil
}

// Disk returns the block's current logical disk.
func (l *SafeLocator) Disk(seed uint64, block uint64) (int, error) {
	x0, err := l.X0(seed, block)
	if err != nil {
		return 0, err
	}
	return l.hist.Locate(x0), nil
}

// DiskAt returns the block's logical disk after only the first j
// operations.
func (l *SafeLocator) DiskAt(seed uint64, block uint64, j int) (int, error) {
	x0, err := l.X0(seed, block)
	if err != nil {
		return 0, err
	}
	return l.hist.DiskAt(x0, j), nil
}
