package cm

import (
	"errors"
	"sync"
	"testing"

	"scaddar/internal/placement"
	"scaddar/internal/prng"
	"scaddar/internal/workload"
)

func testFactory(seed uint64) prng.Source { return prng.NewSplitMix64(seed) }

// buildSnap builds a snapshot or fails the test.
func buildSnap(t *testing.T, srv *Server) *LocatorSnapshot {
	t.Helper()
	sn, err := srv.BuildSnapshot(testFactory)
	if err != nil {
		t.Fatal(err)
	}
	return sn
}

// assertSnapshotAgrees checks that, for every loaded block, the snapshot's
// Locate names the same physical disk Server.Lookup serves the block from.
func assertSnapshotAgrees(t *testing.T, srv *Server, sn *LocatorSnapshot, objects, blocks int) {
	t.Helper()
	for o := 0; o < objects; o++ {
		for i := 0; i < blocks; i++ {
			want, err := srv.Lookup(o, i)
			if err != nil {
				t.Fatalf("Lookup(%d,%d): %v", o, i, err)
			}
			logical, err := sn.Locate(o, i)
			if err != nil {
				t.Fatalf("snapshot Locate(%d,%d): %v", o, i, err)
			}
			got, err := srv.Array().Disk(logical)
			if err != nil {
				t.Fatalf("resolving snapshot disk %d: %v", logical, err)
			}
			if got.ID() != want.ID() {
				t.Fatalf("block %d/%d: snapshot says disk %v, server serves from %v",
					o, i, got.ID(), want.ID())
			}
		}
	}
}

func TestSnapshotAgreesWithLookupDuringScaleUp(t *testing.T) {
	srv := newServer(t, 4)
	loadObjects(t, srv, 6, 300)
	assertSnapshotAgrees(t, srv, buildSnap(t, srv), 6, 300)

	if _, err := srv.ScaleUp(2); err != nil {
		t.Fatal(err)
	}
	// Re-snapshot after every round of the drain: the pending set shrinks
	// each Tick and the snapshot must track it.
	for srv.Reorganizing() {
		assertSnapshotAgrees(t, srv, buildSnap(t, srv), 6, 300)
		if err := srv.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.FinishReorganization(); err != nil {
		t.Fatal(err)
	}
	assertSnapshotAgrees(t, srv, buildSnap(t, srv), 6, 300)
}

func TestSnapshotAgreesWithLookupDuringScaleDown(t *testing.T) {
	srv := newServer(t, 6)
	loadObjects(t, srv, 6, 300)
	if _, err := srv.ScaleDown(1, 4); err != nil {
		t.Fatal(err)
	}
	for srv.Reorganizing() {
		assertSnapshotAgrees(t, srv, buildSnap(t, srv), 6, 300)
		if err := srv.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	// Drained but not yet detached: the pre-removal translation still
	// applies.
	assertSnapshotAgrees(t, srv, buildSnap(t, srv), 6, 300)
	if err := srv.CompleteScaleDown(); err != nil {
		t.Fatal(err)
	}
	assertSnapshotAgrees(t, srv, buildSnap(t, srv), 6, 300)
}

func TestSnapshotAgreesAfterFullRedistribute(t *testing.T) {
	srv := newServer(t, 4)
	loadObjects(t, srv, 4, 200)
	if _, err := srv.FullRedistribute(); err != nil {
		t.Fatal(err)
	}
	for srv.Reorganizing() {
		assertSnapshotAgrees(t, srv, buildSnap(t, srv), 4, 200)
		if err := srv.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.FinishReorganization(); err != nil {
		t.Fatal(err)
	}
	// Epoch is now 1: the snapshot's locator must reproduce the
	// epoch-mixed placement.
	assertSnapshotAgrees(t, srv, buildSnap(t, srv), 4, 200)
}

func TestSnapshotTypedErrors(t *testing.T) {
	srv := newServer(t, 4)
	loadObjects(t, srv, 2, 50)
	sn := buildSnap(t, srv)
	if _, err := sn.Locate(99, 0); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("unknown object error = %v, want ErrUnknownObject", err)
	}
	if _, err := sn.Locate(0, 50); !errors.Is(err, ErrBlockOutOfRange) {
		t.Errorf("out-of-range error = %v, want ErrBlockOutOfRange", err)
	}
	if _, err := sn.Locate(0, -1); !errors.Is(err, ErrBlockOutOfRange) {
		t.Errorf("negative index error = %v, want ErrBlockOutOfRange", err)
	}
}

func TestServerTypedErrors(t *testing.T) {
	srv := newServer(t, 4)
	loadObjects(t, srv, 2, 50)
	if _, err := srv.Lookup(99, 0); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("Lookup unknown object = %v, want ErrUnknownObject", err)
	}
	if _, err := srv.Lookup(0, 50); !errors.Is(err, ErrBlockOutOfRange) {
		t.Errorf("Lookup out of range = %v, want ErrBlockOutOfRange", err)
	}
	if _, err := srv.StartStream(99); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("StartStream unknown object = %v, want ErrUnknownObject", err)
	}
	if err := srv.SeekStream(12345, 0); !errors.Is(err, ErrUnknownStream) {
		t.Errorf("SeekStream unknown stream = %v, want ErrUnknownStream", err)
	}
	st, err := srv.StartStream(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.SeekStream(st.ID, 50); !errors.Is(err, ErrBlockOutOfRange) {
		t.Errorf("SeekStream out of range = %v, want ErrBlockOutOfRange", err)
	}
	// Exhaust admission and check the rejection is typed.
	var admitErr error
	for i := 0; i < 10000; i++ {
		if _, admitErr = srv.StartStream(0); admitErr != nil {
			break
		}
	}
	if !errors.Is(admitErr, ErrAdmissionRejected) {
		t.Errorf("admission rejection = %v, want ErrAdmissionRejected", admitErr)
	}
	if _, err := srv.ScaleUp(1); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.ScaleUp(1); !errors.Is(err, ErrBusy) {
		t.Errorf("double scale-up = %v, want ErrBusy", err)
	}
}

func TestSnapshotConcurrentLookups(t *testing.T) {
	srv := newServer(t, 4)
	loadObjects(t, srv, 4, 200)
	sn := buildSnap(t, srv)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for o := 0; o < 4; o++ {
				for i := 0; i < 200; i++ {
					if _, err := sn.Locate(o, (i+g)%200); err != nil {
						t.Errorf("Locate: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestBuildSnapshotNeedsConcurrentStrategy(t *testing.T) {
	strat, err := placement.NewRoundRobin(4)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(DefaultConfig(), strat)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.BuildSnapshot(testFactory); err == nil {
		t.Error("round-robin strategy produced a snapshot")
	}
	srv2 := newServer(t, 4)
	if _, err := srv2.BuildSnapshot(nil); err == nil {
		t.Error("nil factory accepted")
	}
}

// BenchmarkLookup compares the owner-goroutine Lookup path with the
// concurrent snapshot path the gateway uses (single-threaded and parallel).
func BenchmarkLookup(b *testing.B) {
	x0 := placement.NewX0Func(func(seed uint64) prng.Source { return prng.NewSplitMix64(seed) })
	strat, err := placement.NewScaddar(8, x0)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewServer(DefaultConfig(), strat)
	if err != nil {
		b.Fatal(err)
	}
	const objects, blocks = 8, 500
	for i := 0; i < objects; i++ {
		if err := srv.AddObject(testObject(i, blocks)); err != nil {
			b.Fatal(err)
		}
	}
	sn, err := srv.BuildSnapshot(testFactory)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("server", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := srv.Lookup(i%objects, (i*7)%blocks); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("snapshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sn.Locate(i%objects, (i*7)%blocks); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("snapshot-parallel", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if _, err := sn.Locate(i%objects, (i*7)%blocks); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	})
}

// BenchmarkSnapshotLocateBatch is the batched read path in the shape the
// end-to-end ledger drives it (bench's lookup_bin_batch and its
// cm.snapshot_locate_batch probe): one frame of 1,024 addresses, objects
// drawn Zipf(0.729) from 64 and blocks uniformly from 2,000, over an array
// twelve scaling operations old (6 disks, seven additions, five removals).
func BenchmarkSnapshotLocateBatch(b *testing.B) {
	strat, err := placement.NewScaddar(6, placement.NewX0Func(testFactory))
	if err != nil {
		b.Fatal(err)
	}
	for _, op := range [][]int{nil, nil, {2}, nil, {0, 5}, nil, nil, nil, {3}, {6}, nil, {4}} {
		if op == nil {
			err = strat.AddDisks(1)
		} else {
			err = strat.RemoveDisks(op...)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	srv, err := NewServer(DefaultConfig(), strat)
	if err != nil {
		b.Fatal(err)
	}
	const objects, blocks, frame = 64, 2000, 1024
	for i := 0; i < objects; i++ {
		if err := srv.AddObject(testObject(i, blocks)); err != nil {
			b.Fatal(err)
		}
	}
	sn, err := srv.BuildSnapshot(testFactory)
	if err != nil {
		b.Fatal(err)
	}
	src := prng.NewSplitMix64(17)
	zipf, err := workload.NewZipf(src, objects, 0.729)
	if err != nil {
		b.Fatal(err)
	}
	addrs := make([]BlockAddr, frame)
	for i := range addrs {
		addrs[i] = BlockAddr{Object: zipf.Draw(), Index: int(src.Next() % blocks)}
	}
	disks, status := make([]int32, frame), make([]uint8, frame)
	var sc BatchScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sn.LocateBatch(addrs, disks, status, &sc)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/frame, "ns/block")
}

// TestSnapshotIsPointInTime: snapshots share the executor's pending set
// instead of copying it, so each must keep answering as of its own round
// while the owner drains on. Every round's snapshot is checked against
// Server.locate as it stood that round — by reader goroutines running
// concurrently with the rounds that follow (run under -race) — and a block
// moved in round r+1 must still read as pending through round r's snapshot.
func TestSnapshotIsPointInTime(t *testing.T) {
	const objects, blocks = 6, 300
	srv := newServer(t, 4)
	loadObjects(t, srv, objects, blocks)
	if _, err := srv.ScaleUp(2); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var prevSnap *LocatorSnapshot
	var prevWant []int
	stale := 0
	for round := 0; srv.Reorganizing(); round++ {
		sn, want := buildSnap(t, srv), locateAllBlocks(srv, objects, blocks)
		if prevSnap != nil {
			for k := range want {
				if want[k] == prevWant[k] {
					continue
				}
				// Moved since the previous round: old snapshot, old home.
				if got, err := prevSnap.Locate(k/blocks, k%blocks); err != nil || got != prevWant[k] {
					t.Fatalf("round %d: block %d/%d moved %d→%d, the previous round's snapshot now says %d (%v)",
						round, k/blocks, k%blocks, prevWant[k], want[k], got, err)
				}
				stale++
			}
		}
		prevSnap, prevWant = sn, want
		wg.Add(1)
		go func(round int) {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				for k, w := range want {
					if got, err := sn.Locate(k/blocks, k%blocks); err != nil || got != w {
						t.Errorf("round %d snapshot: block %d/%d on disk %d (%v), the server had it on %d that round",
							round, k/blocks, k%blocks, got, err, w)
						return
					}
				}
			}
		}(round)
		if err := srv.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if stale == 0 {
		t.Fatal("no block moved between two snapshots; the test did not cover the stale-view case")
	}
}
