package placement

import (
	"math"
	"testing"

	"scaddar/internal/prng"
)

func splitmix(seed uint64) prng.Source { return prng.NewSplitMix64(seed) }

// awkwardIDs are object IDs no dense table could index: zero, a small one, a
// slot-collision pair, values past 32 bits, negatives and both int extremes.
var awkwardIDs = []int{0, 63, 64, 1 << 31, 1 << 40, -1, -64, math.MaxInt, math.MinInt}

func TestCatalogFindsAnyID(t *testing.T) {
	strat, err := NewScaddar(5, NewX0Func(splitmix))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n <= len(awkwardIDs); n++ {
		rows := make([]CatalogRow, n)
		for i := range rows {
			// Listed in reverse: the catalogue sorts for itself.
			id := awkwardIDs[n-1-i]
			rows[i] = CatalogRow{ID: id, Seed: uint64(id)*31 + 5, Blocks: 10 + i, BlockBytes: 4096}
		}
		cat, err := strat.ResolveCatalog(splitmix, rows)
		if err != nil {
			t.Fatal(err)
		}
		if cat.Len() != n {
			t.Fatalf("%d rows: Len() = %d", n, cat.Len())
		}
		for _, r := range rows {
			o := cat.Find(r.ID)
			if o == nil || o.CatalogRow != r {
				t.Fatalf("%d rows: Find(%d) = %+v, want %+v", n, r.ID, o, r)
			}
			for i := uint64(0); i < 20; i++ {
				x0, ok := o.X0(i)
				if want := strat.blockX0(BlockRef{Seed: r.Seed, Index: i}); !ok || x0 != want {
					t.Fatalf("object %d block %d: X0 = (%d,%v), the strategy draws %d", r.ID, i, x0, ok, want)
				}
			}
		}
		for _, id := range append([]int{1, 62, 1<<31 + 1, -2, 1 << 50}, awkwardIDs[n:]...) {
			if o := cat.Find(id); o != nil {
				t.Fatalf("%d rows: Find(%d) found %+v in a catalogue that does not list it", n, id, o)
			}
		}
		objs := cat.Objects()
		for i := 1; i < len(objs); i++ {
			if objs[i-1].ID >= objs[i].ID {
				t.Fatalf("Objects() not in ID order: %d before %d", objs[i-1].ID, objs[i].ID)
			}
		}
	}
}

func TestCatalogRefusesDuplicateID(t *testing.T) {
	strat, err := NewScaddar(4, NewX0Func(splitmix))
	if err != nil {
		t.Fatal(err)
	}
	rows := []CatalogRow{{ID: 3, Seed: 1, Blocks: 1}, {ID: 9, Seed: 2, Blocks: 1}, {ID: 3, Seed: 3, Blocks: 1}}
	if _, err := strat.ResolveCatalog(splitmix, rows); err == nil {
		t.Fatal("a catalogue listing object 3 twice was accepted")
	}
}

// TestCatalogEpochTransformKeepsIndex is the second half of the memo
// bugfix: after a Rebaseline the epoch transform used to hide a counter-based
// generator's At behind Next, so every "lock-free" lookup took SyncCached's
// mutex. The catalogue's epoch-1 sequence must still be the pure generator
// under the transform, and draw exactly what Disk draws — at full width and
// truncated.
func TestCatalogEpochTransformKeepsIndex(t *testing.T) {
	for _, bits := range []uint{64, 32} {
		factory := func(seed uint64) prng.Source { return prng.Truncate(prng.NewSplitMix64(seed), bits) }
		strat, err := NewScaddar(4, NewX0Func(factory))
		if err != nil {
			t.Fatal(err)
		}
		if err := strat.SetBits(bits); err != nil {
			t.Fatal(err)
		}
		rows := []CatalogRow{{ID: 1, Seed: 11, Blocks: 500}, {ID: 2, Seed: 22, Blocks: 500}}
		before, err := strat.ResolveCatalog(factory, rows)
		if err != nil {
			t.Fatal(err)
		}
		if err := strat.Rebaseline(); err != nil {
			t.Fatal(err)
		}
		if strat.Resolved(before) {
			t.Fatal("a catalogue resolved at epoch 0 still counts as resolved at epoch 1")
		}
		cat, err := strat.ResolveCatalog(factory, rows)
		if err != nil {
			t.Fatal(err)
		}
		if !strat.Resolved(cat) {
			t.Fatal("a freshly resolved catalogue does not count as resolved")
		}
		for _, r := range rows {
			o := cat.Find(r.ID)
			mixed, ok := o.seq.(*epochIndexed)
			if !ok {
				t.Fatalf("%d bits: epoch-1 sequence is %T, want the indexed epoch transform", bits, o.seq)
			}
			if _, locked := mixed.inner.(*prng.SyncCached); locked {
				t.Fatalf("%d bits: the epoch transform sits on a mutex-guarded memo; SplitMix64 needs none", bits)
			}
			for i := uint64(0); i < 500; i++ {
				x0, _ := o.X0(i)
				if want := strat.blockX0(BlockRef{Seed: r.Seed, Index: i}); x0 != want || x0 > prng.MaxValue(bits) {
					t.Fatalf("%d bits: object %d block %d: X0 = %d, the strategy draws %d", bits, r.ID, i, x0, want)
				}
			}
		}
	}
}

// TestCatalogRefusesOddWidth: the first object's generator sets the width;
// an object the factory builds a different one for is listed but cannot be
// located through.
func TestCatalogRefusesOddWidth(t *testing.T) {
	factory := func(seed uint64) prng.Source {
		if seed == 2 {
			return prng.NewPCG32(seed)
		}
		return prng.NewSplitMix64(seed)
	}
	strat, err := NewScaddar(4, NewX0Func(factory))
	if err != nil {
		t.Fatal(err)
	}
	cat, err := strat.ResolveCatalog(factory, []CatalogRow{{ID: 1, Seed: 1, Blocks: 9}, {ID: 2, Seed: 2, Blocks: 9}, {ID: 3, Seed: 3, Blocks: 9}})
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range map[int]bool{1: true, 2: false, 3: true} {
		if _, ok := cat.Find(id).X0(0); ok != want {
			t.Errorf("object %d: X0 ok = %v, want %v", id, ok, want)
		}
	}
}
