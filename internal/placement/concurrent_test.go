package placement

import (
	"sync"
	"testing"

	"scaddar/internal/prng"
	"scaddar/internal/scaddar"
)

// concurrentLocator is what a snapshot reader holds of a strategy: the
// point-in-time chain and the resolved catalogue (object ID = seed here).
type concurrentLocator struct {
	chain *scaddar.CompiledChain
	cat   *Catalog
}

func newConcurrentLocator(t *testing.T, strat *Scaddar, factory scaddar.SourceFactory, seeds ...uint64) concurrentLocator {
	t.Helper()
	rows := make([]CatalogRow, len(seeds))
	for i, seed := range seeds {
		rows[i] = CatalogRow{ID: int(seed), Seed: seed, Blocks: 1 << 20}
	}
	cat, err := strat.ResolveCatalog(factory, rows)
	if err != nil {
		t.Fatal(err)
	}
	return concurrentLocator{chain: strat.SnapshotChain(), cat: cat}
}

func (l concurrentLocator) Disk(seed, index uint64) int {
	x0, _ := l.cat.Find(int(seed)).X0(index)
	return l.chain.Locate(x0)
}

// TestConcurrentLocatorAgreesWithDisk checks that a snapshot chain plus a
// resolved catalogue reproduce Disk() for every block, stay pinned to their
// clone when the strategy scales afterwards, and survive Rebaseline epochs.
func TestConcurrentLocatorAgreesWithDisk(t *testing.T) {
	factory := func(seed uint64) prng.Source { return prng.NewSplitMix64(seed) }
	strat, err := NewScaddar(4, NewX0Func(factory))
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string) {
		t.Helper()
		loc := newConcurrentLocator(t, strat, factory, 1, 2, 3, 4, 5)
		for seed := uint64(1); seed <= 5; seed++ {
			for i := uint64(0); i < 200; i++ {
				want := strat.Disk(BlockRef{Seed: seed, Index: i})
				if got := loc.Disk(seed, i); got != want {
					t.Fatalf("%s: block %d/%d: locator says %d, strategy says %d",
						label, seed, i, got, want)
				}
			}
		}
	}
	check("initial")
	if err := strat.AddDisks(3); err != nil {
		t.Fatal(err)
	}
	check("after add")
	if err := strat.RemoveDisks(2, 5); err != nil {
		t.Fatal(err)
	}
	check("after remove")

	// A snapshot taken now must not see the next operation.
	loc := newConcurrentLocator(t, strat, factory, 1)
	frozen := make(map[uint64]int)
	for i := uint64(0); i < 100; i++ {
		frozen[i] = loc.Disk(1, i)
	}
	if err := strat.AddDisks(2); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		if d := loc.Disk(1, i); d != frozen[i] {
			t.Fatalf("snapshot moved with the strategy: block 1/%d %d -> %d", i, frozen[i], d)
		}
	}
	check("after second add")

	if err := strat.Rebaseline(); err != nil {
		t.Fatal(err)
	}
	check("after rebaseline")
	if err := strat.AddDisks(1); err != nil {
		t.Fatal(err)
	}
	check("epoch 1 after add")
}

// TestConcurrentLocatorParallel hammers one snapshot from many goroutines;
// run under -race this is the lock-freedom check.
func TestConcurrentLocatorParallel(t *testing.T) {
	factory := func(seed uint64) prng.Source { return prng.NewSplitMix64(seed) }
	strat, err := NewScaddar(6, NewX0Func(factory))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int, 500)
	for i := range want {
		want[i] = strat.Disk(BlockRef{Seed: 9, Index: uint64(i)})
	}
	loc := newConcurrentLocator(t, strat, factory, 9)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				idx := (i + g*61) % 500
				if got := loc.Disk(9, uint64(idx)); got != want[idx] {
					t.Errorf("block 9/%d: got disk %d, want %d", idx, got, want[idx])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestConcurrentLocatorNilFactory(t *testing.T) {
	strat, err := NewScaddar(4, NewX0Func(func(seed uint64) prng.Source { return prng.NewSplitMix64(seed) }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := strat.ResolveCatalog(nil, nil); err == nil {
		t.Error("nil factory accepted")
	}
}
