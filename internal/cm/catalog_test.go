package cm

import (
	"errors"
	"sync"
	"testing"

	"scaddar/internal/placement"
	"scaddar/internal/prng"
)

// drain ticks a migration to its end and clears it.
func drain(t *testing.T, srv *Server) {
	t.Helper()
	for srv.Reorganizing() {
		if err := srv.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.FinishReorganization(); err != nil {
		t.Fatal(err)
	}
}

// countedSource counts the values drawn from a sequential generator.
type countedSource struct {
	prng.Source
	draws *int
}

func (c countedSource) Next() uint64 { *c.draws++; return c.Source.Next() }

// TestSnapshotsKeepGeneratorPrefix pins the first memo bugfix. A sequential
// generator (every family but SplitMix64) reaches block i by generating the i
// values before it and remembering them. Every BuildSnapshot used to start
// that memory empty, and a drain publishes every round — so each round's
// first lookup of block i regenerated i values under a mutex. The resolved
// catalogue holds the sequences and outlives the round: over a whole drain an
// object's generator is stepped once per block, however many snapshots are
// built.
func TestSnapshotsKeepGeneratorPrefix(t *testing.T) {
	const objects, blocks = 4, 300
	xorshift := func(seed uint64) prng.Source { return prng.NewXorshift64Star(seed) }
	strat, err := placement.NewScaddar(4, placement.NewX0Func(xorshift))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(DefaultConfig(), strat)
	if err != nil {
		t.Fatal(err)
	}
	objs := loadObjects(t, srv, objects, blocks)
	draws := make(map[uint64]*int)
	counting := func(seed uint64) prng.Source {
		if draws[seed] == nil {
			draws[seed] = new(int)
		}
		return countedSource{Source: prng.NewXorshift64Star(seed), draws: draws[seed]}
	}
	if _, err := srv.ScaleUp(2); err != nil {
		t.Fatal(err)
	}
	snapshots := 0
	for ; srv.Reorganizing(); snapshots++ {
		sn, err := srv.BuildSnapshot(counting)
		if err != nil {
			t.Fatal(err)
		}
		for o := range objs {
			for i := blocks - 1; i >= 0; i -= 7 {
				want, err := srv.Lookup(o, i)
				if err != nil {
					t.Fatal(err)
				}
				logical, err := sn.Locate(o, i)
				if err != nil {
					t.Fatal(err)
				}
				if got, err := srv.Array().Disk(logical); err != nil || got.ID() != want.ID() {
					t.Fatalf("snapshot %d: block %d/%d on logical disk %d (%v), the server reads it from disk %v",
						snapshots, o, i, logical, err, want.ID())
				}
			}
		}
		if err := srv.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if snapshots < 3 {
		t.Fatalf("the drain took %d rounds; the test needs at least 3 snapshots of one drain", snapshots)
	}
	for _, o := range objs {
		if n := *draws[o.Seed]; n > blocks {
			t.Errorf("object %d: generator stepped %d times over %d snapshots; %d blocks need at most %d",
				o.ID, n, snapshots, blocks, blocks)
		}
	}
}

// locateAllBlocks records Server.locate for every loaded block.
func locateAllBlocks(srv *Server, objects, blocks int) []int {
	out := make([]int, 0, objects*blocks)
	for o := 0; o < objects; o++ {
		seed := srv.objects[o].Seed
		for i := 0; i < blocks; i++ {
			out = append(out, srv.locate(placement.BlockRef{Seed: seed, Index: uint64(i)}))
		}
	}
	return out
}

// TestSnapshotAfterFullRedistribute: the snapshot path reproduces the epoch
// transform — Locate and LocateBatch agree with Server.locate for every block
// mid-redistribution and after it. (That it does so without a mutex is
// placement's TestCatalogEpochTransformKeepsIndex; that it does so without
// allocating is TestSnapshotLocateZeroAlloc.)
func TestSnapshotAfterFullRedistribute(t *testing.T) {
	const objects, blocks = 5, 200
	srv := newServer(t, 4)
	loadObjects(t, srv, objects, blocks)
	if _, err := srv.ScaleUp(1); err != nil {
		t.Fatal(err)
	}
	drain(t, srv)
	if _, err := srv.FullRedistribute(); err != nil {
		t.Fatal(err)
	}
	check := func(label string) {
		t.Helper()
		sn, want := buildSnap(t, srv), locateAllBlocks(srv, objects, blocks)
		for k, w := range want {
			if got, err := sn.Locate(k/blocks, k%blocks); err != nil || got != w {
				t.Fatalf("%s: block %d/%d: snapshot says disk %d (%v), the server %d", label, k/blocks, k%blocks, got, err, w)
			}
		}
		assertBatchAgrees(t, sn, objects, blocks)
	}
	check("mid-redistribution")
	if err := srv.Tick(); err != nil {
		t.Fatal(err)
	}
	check("one round in")
	drain(t, srv)
	check("epoch 1, idle")
	if _, err := srv.ScaleUp(2); err != nil {
		t.Fatal(err)
	}
	check("epoch 1, scaling up")
}

// TestLocateBatchMatchesLocateAnyID compares LocateBatch with Locate entry by
// entry — disk and status — over object IDs a dense table would mishandle,
// block indices on both sides of every extent, idle and mid-migration.
func TestLocateBatchMatchesLocateAnyID(t *testing.T) {
	const objects, blocks = 64, 40
	var addrs []BlockAddr
	for _, id := range []int{0, 63, 64, 1 << 31, 1<<31 + 63, 1 << 40, -1, -64, 1 << 24} {
		for _, idx := range []int{0, 1, blocks / 2, blocks - 1, blocks, -1, 1 << 40} {
			addrs = append(addrs, BlockAddr{Object: id, Index: idx})
		}
	}
	for o := 0; o < objects; o++ {
		addrs = append(addrs, BlockAddr{Object: o, Index: (o * 7) % blocks})
	}
	check := func(label string, sn *LocatorSnapshot) {
		t.Helper()
		disks, status := make([]int32, len(addrs)), make([]uint8, len(addrs))
		var sc BatchScratch
		sn.LocateBatch(addrs, disks, status, &sc)
		resolved := 0
		for k, a := range addrs {
			d, err := sn.Locate(a.Object, a.Index)
			var want uint8
			switch {
			case err == nil:
				want = LocateOK
				resolved++
			case errors.Is(err, ErrUnknownObject):
				want = LocateUnknownObject
			case errors.Is(err, ErrBlockOutOfRange):
				want = LocateOutOfRange
			default:
				t.Fatalf("%s: Locate(%d,%d): %v", label, a.Object, a.Index, err)
			}
			if status[k] != want || int(disks[k]) != d {
				t.Fatalf("%s: entry %d/%d: batch (disk %d, status %d), Locate (disk %d, status %d: %v)",
					label, a.Object, a.Index, disks[k], status[k], d, want, err)
			}
		}
		if want := 2*4 + objects; resolved != want {
			t.Fatalf("%s: %d entries resolved, want %d (objects 0 and 63 at four indices, one block each of all %d)",
				label, resolved, want, objects)
		}
	}
	up := newServer(t, 6)
	loadObjects(t, up, objects, blocks)
	check("idle", buildSnap(t, up))
	if _, err := up.ScaleUp(2); err != nil {
		t.Fatal(err)
	}
	check("scale-up accepted", buildSnap(t, up))
	if err := up.Tick(); err != nil {
		t.Fatal(err)
	}
	if !up.Reorganizing() {
		t.Fatal("the scale-up drained in one round; the mid-drain case is not covered")
	}
	check("mid scale-up", buildSnap(t, up))

	down := newServer(t, 6)
	loadObjects(t, down, objects, blocks)
	if _, err := down.ScaleDown(1, 4); err != nil {
		t.Fatal(err)
	}
	if err := down.Tick(); err != nil {
		t.Fatal(err)
	}
	if !down.Reorganizing() {
		t.Fatal("the scale-down drained in one round; the mid-drain case is not covered")
	}
	sn := buildSnap(t, down)
	if sn.preOf == nil {
		t.Fatal("mid scale-down snapshot carries no index translation")
	}
	check("mid scale-down", sn)
}

// TestOldSnapshotKeepsItsCatalogue: snapshots share the resolved catalogue
// by pointer while nothing changes it, and a snapshot built before an object
// was added or removed, or before a complete redistribution, keeps answering
// from the catalogue and the chain it was built with — read here by
// goroutines running while the owner goes on changing the server (-race).
func TestOldSnapshotKeepsItsCatalogue(t *testing.T) {
	const objects, blocks = 4, 120
	srv := newServer(t, 4)
	loadObjects(t, srv, objects, blocks)

	type pinned struct {
		label string
		sn    *LocatorSnapshot
		ids   []int
		want  map[int][]int // object → disk of every block at build time
	}
	pin := func(label string, ids ...int) pinned {
		t.Helper()
		p := pinned{label: label, sn: buildSnap(t, srv), ids: ids, want: make(map[int][]int)}
		for _, id := range ids {
			for i := 0; i < blocks; i++ {
				p.want[id] = append(p.want[id], srv.locate(placement.BlockRef{Seed: srv.objects[id].Seed, Index: uint64(i)}))
			}
		}
		return p
	}
	var wg sync.WaitGroup
	read := func(p pinned, absent ...int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if n := p.sn.ObjectCount(); n != len(p.ids) || len(p.sn.Objects()) != n {
				t.Errorf("%s: snapshot lists %d objects, was built with %d", p.label, n, len(p.ids))
			}
			for pass := 0; pass < 3; pass++ {
				for _, id := range p.ids {
					for i, w := range p.want[id] {
						if got, err := p.sn.Locate(id, i); err != nil || got != w {
							t.Errorf("%s: block %d/%d on disk %d (%v); it was on %d when the snapshot was built",
								p.label, id, i, got, err, w)
							return
						}
					}
				}
				for _, id := range absent {
					if _, err := p.sn.Locate(id, 0); !errors.Is(err, ErrUnknownObject) {
						t.Errorf("%s: object %d did not exist when the snapshot was built, Locate says %v", p.label, id, err)
						return
					}
				}
			}
		}()
	}

	first := pin("four objects", 0, 1, 2, 3)
	if again := buildSnap(t, srv); again.catalog != first.sn.catalog {
		t.Fatal("two snapshots of an unchanged server resolved the catalogue twice")
	}
	read(first, 4)
	if err := srv.AddObject(testObject(4, blocks)); err != nil {
		t.Fatal(err)
	}
	added := pin("object 4 added", 0, 1, 2, 3, 4)
	if added.sn.catalog == first.sn.catalog {
		t.Fatal("the snapshot after AddObject shares the catalogue from before it")
	}
	read(added)
	if err := srv.RemoveObject(1); err != nil {
		t.Fatal(err)
	}
	removed := pin("object 1 removed", 0, 2, 3, 4)
	read(removed, 1)
	if _, err := srv.FullRedistribute(); err != nil {
		t.Fatal(err)
	}
	redistributing := pin("redistributing", 0, 2, 3, 4)
	if redistributing.sn.catalog == removed.sn.catalog {
		t.Fatal("the snapshot after FullRedistribute shares the epoch-0 catalogue")
	}
	read(redistributing, 1)
	read(removed, 1) // again, now against a server in another epoch
	if err := srv.Tick(); err != nil {
		t.Fatal(err)
	}
	if mid := buildSnap(t, srv); mid.catalog != redistributing.sn.catalog {
		t.Fatal("a drain round re-resolved the catalogue")
	}
	drain(t, srv)
	wg.Wait()
}

// TestSnapshotRefusesOddWidthObject: a factory that builds one object a
// generator of another width is a misconfiguration the snapshot reports per
// lookup — an error from Locate, LocateFailed from LocateBatch — while every
// other object keeps resolving.
func TestSnapshotRefusesOddWidthObject(t *testing.T) {
	srv := newServer(t, 4)
	objs := loadObjects(t, srv, 3, 50)
	sn, err := srv.BuildSnapshot(func(seed uint64) prng.Source {
		if seed == objs[1].Seed {
			return prng.NewPCG32(seed)
		}
		return prng.NewSplitMix64(seed)
	})
	if err != nil {
		t.Fatal(err)
	}
	addrs := []BlockAddr{{Object: 0, Index: 3}, {Object: 1, Index: 3}, {Object: 2, Index: 3}}
	disks, status := make([]int32, 3), make([]uint8, 3)
	var sc BatchScratch
	sn.LocateBatch(addrs, disks, status, &sc)
	if status[0] != LocateOK || status[1] != LocateFailed || status[2] != LocateOK {
		t.Fatalf("batch statuses %v, want [OK, failed, OK]", status)
	}
	if _, err := sn.Locate(1, 3); !errors.Is(err, placement.ErrGeneratorWidth) {
		t.Fatalf("Locate on the odd-width object: %v, want ErrGeneratorWidth", err)
	}
	if _, err := sn.Locate(2, 3); err != nil {
		t.Fatal(err)
	}
}
