package cm

import (
	"runtime"
	"testing"

	"scaddar/internal/placement"
	"scaddar/internal/reorg"
)

// TestSnapshotLocateZeroAlloc is the read-path allocation guard: Locate —
// the gateway's per-request locate step — and LocateBatch on a warm scratch
// must not allocate, neither in steady state nor mid-migration with a pending
// view in place, nor in epoch 1, where every X0 also passes through the
// epoch transform.
func TestSnapshotLocateZeroAlloc(t *testing.T) {
	srv := newServer(t, 4)
	loadObjects(t, srv, 4, 100)

	snaps := map[string]*LocatorSnapshot{"steady": buildSnap(t, srv)}
	if _, err := srv.ScaleUp(2); err != nil {
		t.Fatal(err)
	}
	snaps["migrating"] = buildSnap(t, srv)
	drain(t, srv)
	if _, err := srv.FullRedistribute(); err != nil {
		t.Fatal(err)
	}
	snaps["epoch 1, migrating"] = buildSnap(t, srv)
	drain(t, srv)
	snaps["epoch 1, steady"] = buildSnap(t, srv)
	for _, name := range []string{"migrating", "epoch 1, migrating"} {
		if snaps[name].pending.Len() == 0 {
			t.Fatalf("%s: no pending moves; the guard would not cover the pending path", name)
		}
	}
	addrs := make([]BlockAddr, 256)
	for i := range addrs {
		addrs[i] = BlockAddr{Object: i % 4, Index: (i * 7) % 100}
	}
	disks, status := make([]int32, len(addrs)), make([]uint8, len(addrs))
	for name, sn := range snaps {
		i := 0
		if n := testing.AllocsPerRun(200, func() {
			if _, err := sn.Locate(i%4, (i*7)%100); err != nil {
				t.Fatal(err)
			}
			i++
		}); n != 0 {
			t.Errorf("%s snapshot Locate allocates %.1f/op", name, n)
		}
		var sc BatchScratch
		if n := testing.AllocsPerRun(50, func() { sn.LocateBatch(addrs, disks, status, &sc) }); n != 0 {
			t.Errorf("%s snapshot LocateBatch allocates %.1f/op on a warm scratch", name, n)
		}
	}
}

// drainingServer returns a server of objects × blocks on 8 disks with a
// scale-up to 10 just started: a fifth of its blocks are pending moves.
func drainingServer(tb testing.TB, objects, blocks int) *Server {
	tb.Helper()
	strat, err := placement.NewScaddar(8, placement.NewX0Func(testFactory))
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := NewServer(DefaultConfig(), strat)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < objects; i++ {
		if err := srv.AddObject(testObject(i, blocks)); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := srv.ScaleUp(2); err != nil {
		tb.Fatal(err)
	}
	return srv
}

// TestBuildSnapshotMidDrainPin pins what a mid-drain publish costs. With
// 25 k moves pending BuildSnapshot takes a view of the executor's set instead
// of indexing it, and with 10,000 objects it shares the resolved catalogue
// instead of copying the object map: either way it allocates what an idle
// build over a handful of objects does.
func TestBuildSnapshotMidDrainPin(t *testing.T) {
	for _, c := range []struct{ objects, blocks, minPending int }{{64, 2000, 25000}, {10000, 4, 5000}} {
		srv := drainingServer(t, c.objects, c.blocks)
		if n := srv.MigrationRemaining(); n < c.minPending {
			t.Fatalf("fixture has %d pending moves, want at least %d", n, c.minPending)
		}
		const runs = 20
		var sink *LocatorSnapshot
		var before, after runtime.MemStats
		allocs := testing.AllocsPerRun(runs, func() { sink = buildSnap(t, srv) })
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			sink = buildSnap(t, srv)
		}
		runtime.ReadMemStats(&after)
		if sink.pending.Len() != srv.MigrationRemaining() || sink.ObjectCount() != c.objects {
			t.Fatalf("snapshot sees %d pending moves and %d objects, server %d and %d",
				sink.pending.Len(), sink.ObjectCount(), srv.MigrationRemaining(), c.objects)
		}
		if bytes := (after.TotalAlloc - before.TotalAlloc) / runs; allocs > 24 || bytes > 64<<10 {
			t.Errorf("BuildSnapshot with %d objects and %d moves pending: %.0f allocations, %d bytes; want <= 24 and <= 64 KiB",
				c.objects, srv.MigrationRemaining(), allocs, bytes)
		}
	}
}

// BenchmarkBuildSnapshot measures snapshot construction mid-migration — the
// owner rebuilds one after every drained round, so this bounds how often the
// gateway can refresh its read view. The cost must not depend on how many
// moves are pending.
func BenchmarkBuildSnapshot(b *testing.B) {
	for _, c := range []struct {
		name            string
		objects, blocks int
	}{{"pending=800", 8, 500}, {"pending=25k", 64, 2000}} {
		b.Run(c.name, func(b *testing.B) {
			srv := drainingServer(b, c.objects, c.blocks)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := srv.BuildSnapshot(testFactory); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReplayMigrated measures replaying one journaled round of a drain
// (264 moves, what two new disks take per round) into a server with 25 k
// moves pending — recovery's and the follower's inner loop. Each move is one
// map probe and one stamp; the cost per event no longer scales with the
// catalogue.
func BenchmarkReplayMigrated(b *testing.B) {
	b.Run("pending=25k", func(b *testing.B) {
		const perEvent = 264
		var srv *Server
		var pending []BlockPos
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(pending) < perEvent {
				b.StopTimer()
				srv = drainingServer(b, 64, 2000)
				pending = pending[:0]
				srv.PendingView().Each(func(m reorg.Move) {
					object, _ := srv.objectOfSeed(m.Block.Seed)
					pending = append(pending, BlockPos{Object: object, Index: m.Block.Index})
				})
				b.StartTimer()
			}
			if err := srv.ReplayMigratedBlocks(pending[:perEvent]); err != nil {
				b.Fatal(err)
			}
			pending = pending[perEvent:]
		}
	})
}
