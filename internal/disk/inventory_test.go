package disk

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// The three ID shapes the module mints: cm's object<<40|index, the reorg
// tests' Seed<<32|Index, and schedule's uniform 64-bit IDs (here with three
// near neighbours each, so that strays share pages and words too).
var idShapes = []struct {
	name string
	pool func(*rand.Rand) []BlockID
}{
	{"object<<40|index", func(*rand.Rand) []BlockID {
		ids := make([]BlockID, 0, 2048)
		for i := 0; i < cap(ids); i++ {
			ids = append(ids, BlockID(1+i/700)<<40|BlockID(i%700))
		}
		return ids
	}},
	{"Seed<<32|Index", func(r *rand.Rand) []BlockID {
		ids := make([]BlockID, 0, 2048)
		for len(ids) < cap(ids) {
			seed := BlockID(r.Uint32()) << 32
			for i := 0; i < 512; i++ {
				ids = append(ids, seed|BlockID(i))
			}
		}
		return ids
	}},
	{"uniform 64-bit", func(r *rand.Rand) []BlockID {
		ids := make([]BlockID, 0, 2048)
		for len(ids) < cap(ids) {
			b := BlockID(r.Uint64())
			ids = append(ids, b, b^1, b^64, b^1024)
		}
		return ids
	}},
}

// runInventoryScript drives a Disk and a plain map with the same script —
// three bytes a step: an operation and a 16-bit pick from the pool — and
// fails on the first step where their answers or errors differ.
func runInventoryScript(t *testing.T, pool []BlockID, script []byte) {
	t.Helper()
	d := New(0, Cheetah73)
	model := make(map[BlockID]struct{})
	sorted := func() []BlockID {
		ids := make([]BlockID, 0, len(model))
		for b := range model {
			ids = append(ids, b)
		}
		slices.Sort(ids)
		return ids
	}
	for step := 0; len(script) >= 3; step, script = step+1, script[3:] {
		b := pool[(int(script[1])|int(script[2])<<8)%len(pool)]
		_, held := model[b]
		switch op := script[0] % 16; {
		case op < 6:
			if err := d.Store(b); (err != nil) != held {
				t.Fatalf("step %d: Store(%#x) = %v with the block held: %v", step, b, err, held)
			}
			model[b] = struct{}{}
		case op < 11:
			if err := d.Remove(b); (err != nil) == held {
				t.Fatalf("step %d: Remove(%#x) = %v with the block held: %v", step, b, err, held)
			}
			delete(model, b)
		case op < 13:
			if d.Has(b) != held || d.Read(b) != held {
				t.Fatalf("step %d: Has / Read(%#x) disagree with held = %v", step, b, held)
			}
		case op < 15 || script[1]%8 != 0:
			if got, want := d.Blocks(), sorted(); !slices.Equal(got, want) {
				t.Fatalf("step %d: Blocks() = %d IDs %#x, want %d IDs %#x", step, len(got), got, len(want), want)
			}
		default:
			lost, err := d.Fail()
			if want := sorted(); err != nil || !slices.Equal(lost, want) {
				t.Fatalf("step %d: Fail() = %d IDs, %v; want %d IDs", step, len(lost), err, len(want))
			}
			clear(model)
			if err := d.Store(b); !errors.Is(err, ErrDiskFailed) || d.Has(b) {
				t.Fatalf("step %d: Store on the failed disk = %v, Has = %v", step, err, d.Has(b))
			}
			if err := errors.Join(d.StartRebuild(), d.FinishRebuild()); err != nil {
				t.Fatal(err)
			}
		}
		if d.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, model holds %d", step, d.Len(), len(model))
		}
	}
}

func TestInventoryMatchesMapModel(t *testing.T) {
	for i, shape := range idShapes {
		t.Run(shape.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(25 + i)))
			script := make([]byte, 3*30000)
			r.Read(script)
			runInventoryScript(t, shape.pool(r), script)
		})
	}
}

func FuzzInventory(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 0, 0, 1, 0, 6, 1, 0, 6, 1, 0, 13, 0, 0, 15, 0, 0, 0, 1, 0})
	f.Add(uint8(2), []byte{0, 0, 0, 0, 1, 0, 0, 2, 0, 6, 0, 0, 6, 1, 0, 6, 2, 0, 6, 2, 0})
	f.Fuzz(func(t *testing.T, shape uint8, script []byte) {
		s := idShapes[int(shape)%len(idShapes)]
		runInventoryScript(t, s.pool(rand.New(rand.NewSource(int64(shape)))), script)
	})
}

func TestBlocksAscending(t *testing.T) {
	for i, shape := range idShapes {
		d := New(0, Cheetah73)
		pool := shape.pool(rand.New(rand.NewSource(int64(i))))
		rand.New(rand.NewSource(7)).Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
		stored := 0
		for _, b := range pool {
			if d.Store(b) == nil {
				stored++
			}
		}
		if got := d.Blocks(); len(got) != stored || !slices.IsSorted(got) {
			t.Errorf("%s: Blocks() returned %d of %d IDs, ascending: %v", shape.name, len(got), stored, slices.IsSorted(got))
		}
	}
}

// Two disks filled in different orders lose the same list, in the same
// order: a rebuild planned from it does not depend on how the blocks arrived.
func TestFailLostBlocksOrdered(t *testing.T) {
	pool := idShapes[0].pool(nil)
	a, b := New(0, Cheetah73), New(1, Cheetah73)
	for i := range pool {
		if err := errors.Join(a.Store(pool[i]), b.Store(pool[len(pool)-1-i])); err != nil {
			t.Fatal(err)
		}
	}
	lostA, errA := a.Fail()
	lostB, errB := b.Fail()
	if errA != nil || errB != nil || !slices.IsSorted(lostA) || !slices.Equal(lostA, lostB) || len(lostA) != len(pool) {
		t.Fatalf("Fail() lists of %d and %d IDs (%v, %v), sorted: %v", len(lostA), len(lostB), errA, errB, slices.IsSorted(lostA))
	}
	if a.Len() != 0 || len(a.Blocks()) != 0 || a.Has(pool[0]) {
		t.Fatal("the failed disk still holds blocks")
	}
}

// heapHeld is the live heap after a collection.
func heapHeld() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// The guard against indexing by ID: a bitmap sized by the largest ID it has
// seen would need 2^61 bytes here.
func TestInventorySparseIDsBounded(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	before := heapHeld()
	d := New(0, Cheetah73)
	for d.Len() < 10000 {
		_ = d.Store(BlockID(r.Uint64())) // a repeated draw is refused and drawn again
	}
	held := int64(heapHeld() - before)
	runtime.KeepAlive(d)
	if held > 2<<20 {
		t.Fatalf("10,000 random 64-bit IDs hold %d bytes, want at most 2 MiB", held)
	}
	t.Logf("%d bytes, %.1f per block", held, float64(held)/10000)
}

// cmArray stores objects×blocks IDs of cm's shape on disks drawn uniformly,
// as placement does, and returns the disks with what each was given.
func cmArray(disks, objects, blocks int) ([]*Disk, [][]BlockID) {
	r := rand.New(rand.NewSource(1))
	ds, ids := make([]*Disk, disks), make([][]BlockID, disks)
	for i := range ds {
		ds[i] = New(i, Cheetah73)
	}
	for o := 1; o <= objects; o++ {
		for i := 0; i < blocks; i++ {
			b, at := BlockID(o)<<40|BlockID(i), r.Intn(disks)
			if err := ds[at].Store(b); err != nil {
				panic(err)
			}
			ids[at] = append(ids[at], b)
		}
	}
	return ds, ids
}

func TestInventoryDenseFootprint(t *testing.T) {
	const blocks = 128 << 10
	before := heapHeld()
	ds, _ := cmArray(8, 64, blocks/64)
	held := int64(heapHeld() - before)
	runtime.KeepAlive(ds)
	if held > 4*blocks {
		t.Fatalf("%d blocks over 8 disks hold %d bytes, want at most 4 per block", blocks, held)
	}
	t.Logf("%d bytes, %.2f per block", held, float64(held)/blocks)
}

// BenchmarkInventory is one disk of an 8-disk array with a 1 M-block
// catalogue: 128 k blocks held, one ID in eight of every page.
func BenchmarkInventory(b *testing.B) {
	const held = 128 << 10
	ds, ids := cmArray(8, 64, held*8/64)
	d, mine, other := ds[0], ids[0], ids[1]
	b.Run("has", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if d.Has(mine[i%len(mine)]) == d.Has(other[i%len(other)]) {
				b.Fatal("a held and an absent block answer alike")
			}
		}
	})
	// store and remove put the disk back as they found it after every pass.
	for _, c := range []struct {
		name     string
		set      []BlockID
		do, undo func(BlockID) error
	}{{"store", other, d.Store, d.Remove}, {"remove", mine, d.Remove, d.Store}} {
		b.Run(c.name, func(b *testing.B) {
			set := c.set
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%len(set) == 0 && i > 0 {
					b.StopTimer()
					for _, id := range set {
						_ = c.undo(id)
					}
					b.StartTimer()
				}
				if err := c.do(set[i%len(set)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			for _, id := range set {
				_ = c.undo(id) // refused for what the last pass did not reach
			}
		})
	}
	b.Run("blocks", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := d.Blocks(); len(got) != len(mine) {
				b.Fatalf("Blocks() = %d IDs, want %d", len(got), len(mine))
			}
		}
	})
}
