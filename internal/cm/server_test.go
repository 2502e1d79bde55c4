package cm

import (
	"cmp"
	"slices"
	"strings"
	"testing"
	"time"

	"scaddar/internal/disk"
	"scaddar/internal/placement"
	"scaddar/internal/prng"
	"scaddar/internal/reorg"
	"scaddar/internal/stats"
	"scaddar/internal/workload"
)

func newStrategy(t *testing.T, n0 int) placement.Strategy {
	t.Helper()
	x0 := placement.NewX0Func(func(seed uint64) prng.Source { return prng.NewSplitMix64(seed) })
	s, err := placement.NewScaddar(n0, x0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newServer(t *testing.T, n0 int) *Server {
	t.Helper()
	srv, err := NewServer(DefaultConfig(), newStrategy(t, n0))
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func testObject(id int, blocks int) workload.Object {
	return workload.Object{
		ID:                id,
		Seed:              uint64(id)*1000 + 7,
		Blocks:            blocks,
		BlockBytes:        256 << 10,
		BitrateBitsPerSec: 4 << 20,
	}
}

func loadObjects(t *testing.T, srv *Server, n, blocks int) []workload.Object {
	t.Helper()
	objs := make([]workload.Object, n)
	for i := range objs {
		objs[i] = testObject(i, blocks)
		if err := srv.AddObject(objs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return objs
}

func TestNewServerValidation(t *testing.T) {
	strat := newStrategy(t, 4)
	bad := DefaultConfig()
	bad.Round = 0
	if _, err := NewServer(bad, strat); err == nil {
		t.Error("zero round accepted")
	}
	bad = DefaultConfig()
	bad.BlockBytes = 0
	if _, err := NewServer(bad, strat); err == nil {
		t.Error("zero block size accepted")
	}
	bad = DefaultConfig()
	bad.Utilization = 0
	if _, err := NewServer(bad, strat); err == nil {
		t.Error("zero utilization accepted")
	}
	bad = DefaultConfig()
	bad.Utilization = 1.5
	if _, err := NewServer(bad, strat); err == nil {
		t.Error("utilization > 1 accepted")
	}
	if _, err := NewServer(DefaultConfig(), nil); err == nil {
		t.Error("nil strategy accepted")
	}
	// A round too short to serve one block must be rejected.
	bad = DefaultConfig()
	bad.Round = time.Millisecond
	if _, err := NewServer(bad, strat); err == nil {
		t.Error("starved round length accepted")
	}
}

func TestAddObjectPlacesEveryBlock(t *testing.T) {
	srv := newServer(t, 4)
	obj := testObject(1, 500)
	if err := srv.AddObject(obj); err != nil {
		t.Fatal(err)
	}
	if srv.TotalBlocks() != 500 {
		t.Fatalf("array holds %d blocks, want 500", srv.TotalBlocks())
	}
	if err := srv.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	// The load is spread over all disks.
	loads := srv.Array().Loads()
	for i, l := range loads {
		if l == 0 {
			t.Fatalf("disk %d holds no blocks: %v", i, loads)
		}
	}
}

func TestAddObjectValidation(t *testing.T) {
	srv := newServer(t, 4)
	obj := testObject(1, 100)
	if err := srv.AddObject(obj); err != nil {
		t.Fatal(err)
	}
	if err := srv.AddObject(obj); err == nil {
		t.Error("duplicate object accepted")
	}
	dupSeed := testObject(2, 100)
	dupSeed.Seed = obj.Seed
	if err := srv.AddObject(dupSeed); err == nil {
		t.Error("duplicate seed accepted")
	}
	empty := testObject(3, 0)
	if err := srv.AddObject(empty); err == nil {
		t.Error("empty object accepted")
	}
	wrongBlock := testObject(4, 10)
	wrongBlock.BlockBytes = 1024
	if err := srv.AddObject(wrongBlock); err == nil {
		t.Error("mismatched block size accepted")
	}
}

func TestRemoveObject(t *testing.T) {
	srv := newServer(t, 4)
	loadObjects(t, srv, 3, 100)
	if err := srv.RemoveObject(1); err != nil {
		t.Fatal(err)
	}
	if srv.TotalBlocks() != 200 {
		t.Fatalf("blocks after removal = %d, want 200", srv.TotalBlocks())
	}
	if err := srv.RemoveObject(1); err == nil {
		t.Error("double removal accepted")
	}
	if err := srv.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveObjectWithActiveStream(t *testing.T) {
	srv := newServer(t, 4)
	loadObjects(t, srv, 1, 100)
	if _, err := srv.StartStream(0); err != nil {
		t.Fatal(err)
	}
	if err := srv.RemoveObject(0); err == nil {
		t.Fatal("removed object with active stream")
	}
}

func TestLookup(t *testing.T) {
	srv := newServer(t, 4)
	loadObjects(t, srv, 2, 100)
	d, err := srv.Lookup(0, 50)
	if err != nil {
		t.Fatal(err)
	}
	if d == nil {
		t.Fatal("nil disk")
	}
	if _, err := srv.Lookup(9, 0); err == nil {
		t.Error("unknown object accepted")
	}
	if _, err := srv.Lookup(0, 100); err == nil {
		t.Error("out-of-range block accepted")
	}
	if _, err := srv.Lookup(0, -1); err == nil {
		t.Error("negative block accepted")
	}
}

func TestStreamLifecycle(t *testing.T) {
	srv := newServer(t, 4)
	loadObjects(t, srv, 1, 50)
	st, err := srv.StartStream(0)
	if err != nil {
		t.Fatal(err)
	}
	if srv.ActiveStreams() != 1 {
		t.Fatal("stream not active")
	}
	for i := 0; i < 50; i++ {
		if err := srv.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if st.State != StreamDone {
		t.Fatalf("stream state = %v after full playback", st.State)
	}
	if st.Served != 50 {
		t.Fatalf("served %d blocks, want 50", st.Served)
	}
	m := srv.Metrics()
	if m.StreamsCompleted != 1 || m.BlocksServed != 50 {
		t.Fatalf("metrics %+v", m)
	}
	if srv.ActiveStreams() != 0 {
		t.Fatal("done stream still counted active")
	}
}

func TestStartStreamValidation(t *testing.T) {
	srv := newServer(t, 4)
	loadObjects(t, srv, 1, 50)
	if _, err := srv.StartStream(42); err == nil {
		t.Error("unknown object accepted")
	}
}

func TestAdmissionControl(t *testing.T) {
	srv := newServer(t, 2)
	loadObjects(t, srv, 1, 10000)
	cap := srv.capacityStreams()
	if cap < 1 {
		t.Fatalf("capacity %d", cap)
	}
	for i := 0; i < cap; i++ {
		if _, err := srv.StartStream(0); err != nil {
			t.Fatalf("admission %d/%d failed: %v", i, cap, err)
		}
	}
	if _, err := srv.StartStream(0); err == nil {
		t.Fatal("stream beyond capacity admitted")
	}
	if srv.Metrics().StreamsRejected != 1 {
		t.Fatal("rejection not counted")
	}
}

func TestStopAndSeek(t *testing.T) {
	srv := newServer(t, 4)
	loadObjects(t, srv, 1, 100)
	st, _ := srv.StartStream(0)
	if err := srv.SeekStream(st.ID, 90); err != nil {
		t.Fatal(err)
	}
	if err := srv.SeekStream(st.ID, 100); err == nil {
		t.Error("out-of-range seek accepted")
	}
	if err := srv.SeekStream(999, 0); err == nil {
		t.Error("seek of unknown stream accepted")
	}
	if err := srv.Tick(); err != nil {
		t.Fatal(err)
	}
	if st.Position != 91 {
		t.Fatalf("position after seek+tick = %d, want 91", st.Position)
	}
	if err := srv.StopStream(st.ID); err != nil {
		t.Fatal(err)
	}
	if st.State != StreamStopped {
		t.Fatal("stream not stopped")
	}
	if err := srv.StopStream(999); err == nil {
		t.Error("stop of unknown stream accepted")
	}
	got, err := srv.Stream(st.ID)
	if err != nil || got != st {
		t.Fatal("Stream lookup failed")
	}
	if _, err := srv.Stream(999); err == nil {
		t.Error("unknown stream lookup accepted")
	}
}

func TestScaleUpOnline(t *testing.T) {
	srv := newServer(t, 4)
	loadObjects(t, srv, 5, 400) // 2000 blocks
	st, err := srv.StartStream(0)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := srv.ScaleUp(2)
	if err != nil {
		t.Fatal(err)
	}
	if srv.N() != 6 {
		t.Fatalf("N = %d, want 6", srv.N())
	}
	if !srv.Reorganizing() {
		t.Fatal("no reorganization in progress")
	}
	z := plan.OptimalFraction()
	if f := plan.MoveFraction(); f < z-0.05 || f > z+0.05 {
		t.Fatalf("move fraction %.3f, want ~%.3f", f, z)
	}
	// Stream keeps playing during migration; ticks drive the migration.
	rounds := 0
	for srv.Reorganizing() {
		if err := srv.Tick(); err != nil {
			t.Fatal(err)
		}
		rounds++
		if rounds > 10000 {
			t.Fatal("migration did not converge")
		}
	}
	if err := srv.FinishReorganization(); err != nil {
		t.Fatal(err)
	}
	if st.Hiccups > 0 {
		t.Fatalf("stream hiccuped %d times during migration", st.Hiccups)
	}
	if srv.Metrics().BlocksMigrated != len(plan.Moves) {
		t.Fatalf("migrated %d, want %d", srv.Metrics().BlocksMigrated, len(plan.Moves))
	}
	if err := srv.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	// Load is balanced across the 6 disks afterwards.
	if cov := stats.CoVInts(srv.Array().Loads()); cov > 0.12 {
		t.Fatalf("post-scale CoV %.4f too high: %v", cov, srv.Array().Loads())
	}
}

func TestScaleDownOnline(t *testing.T) {
	srv := newServer(t, 6)
	loadObjects(t, srv, 5, 400)
	plan, err := srv.ScaleDown(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if srv.N() != 6 {
		t.Fatal("physical disks detached before drain")
	}
	if err := srv.CompleteScaleDown(); err == nil {
		t.Fatal("CompleteScaleDown succeeded before drain finished")
	}
	rounds := 0
	for srv.Reorganizing() {
		if err := srv.Tick(); err != nil {
			t.Fatal(err)
		}
		rounds++
		if rounds > 10000 {
			t.Fatal("drain did not converge")
		}
	}
	if err := srv.CompleteScaleDown(); err != nil {
		t.Fatal(err)
	}
	if srv.N() != 4 {
		t.Fatalf("N = %d, want 4", srv.N())
	}
	if err := srv.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	if got := srv.TotalBlocks(); got != plan.Blocks {
		t.Fatalf("blocks after scale-down = %d, want %d", got, plan.Blocks)
	}
}

func TestLookupDuringMigration(t *testing.T) {
	srv := newServer(t, 4)
	loadObjects(t, srv, 3, 300)
	if _, err := srv.ScaleUp(2); err != nil {
		t.Fatal(err)
	}
	// Before any tick, every block must still be locatable (on its old
	// disk if its move is pending).
	for obj := 0; obj < 3; obj++ {
		for i := 0; i < 300; i++ {
			if _, err := srv.Lookup(obj, i); err != nil {
				t.Fatalf("mid-migration lookup failed: %v", err)
			}
		}
	}
	// Run one throttled round and re-verify.
	if err := srv.Tick(); err != nil {
		t.Fatal(err)
	}
	for obj := 0; obj < 3; obj++ {
		for i := 0; i < 300; i++ {
			if _, err := srv.Lookup(obj, i); err != nil {
				t.Fatalf("post-tick lookup failed: %v", err)
			}
		}
	}
}

func TestConcurrentScalingRejected(t *testing.T) {
	srv := newServer(t, 4)
	loadObjects(t, srv, 2, 300)
	if _, err := srv.ScaleUp(1); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.ScaleUp(1); err == nil {
		t.Error("second scale-up during migration accepted")
	}
	if _, err := srv.ScaleDown(0); err == nil {
		t.Error("scale-down during migration accepted")
	}
	if err := srv.AddObject(testObject(77, 10)); err == nil {
		t.Error("object add during migration accepted")
	}
	if err := srv.RemoveObject(0); err == nil {
		t.Error("object removal during migration accepted")
	}
	if err := srv.FinishReorganization(); err == nil {
		t.Error("FinishReorganization succeeded with pending moves")
	}
}

func TestCompleteScaleDownWithoutScaleDown(t *testing.T) {
	srv := newServer(t, 4)
	if err := srv.CompleteScaleDown(); err == nil {
		t.Fatal("CompleteScaleDown without a scale-down accepted")
	}
}

func TestStreamDuringScaleDown(t *testing.T) {
	srv := newServer(t, 6)
	loadObjects(t, srv, 4, 300)
	st, err := srv.StartStream(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.ScaleDown(5); err != nil {
		t.Fatal(err)
	}
	for srv.Reorganizing() {
		if err := srv.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.CompleteScaleDown(); err != nil {
		t.Fatal(err)
	}
	// Finish the stream on the shrunken array.
	for st.State == StreamPlaying {
		if err := srv.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if st.State != StreamDone {
		t.Fatalf("stream state %v", st.State)
	}
	if st.Served != 300 {
		t.Fatalf("served %d, want 300", st.Served)
	}
}

// TestStreamDuringMiddleDiskDrain is the regression test for the logical-
// renumbering bug: while draining a *middle* disk (so survivor indices
// shift), streams reading staying blocks must still find them — the
// strategy's post-removal numbering has to be translated back to the
// physical array's pre-removal numbering until the drain completes.
func TestStreamDuringMiddleDiskDrain(t *testing.T) {
	srv := newServer(t, 6)
	loadObjects(t, srv, 4, 300)
	st, err := srv.StartStream(1)
	if err != nil {
		t.Fatal(err)
	}
	// Remove logical disk 1 — every survivor above it renumbers.
	if _, err := srv.ScaleDown(1); err != nil {
		t.Fatal(err)
	}
	// Lookups of every block must succeed mid-drain.
	for obj := 0; obj < 4; obj++ {
		for i := 0; i < 300; i += 17 {
			if _, err := srv.Lookup(obj, i); err != nil {
				t.Fatalf("mid-drain lookup %d/%d: %v", obj, i, err)
			}
		}
	}
	for srv.Reorganizing() {
		if err := srv.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	// Migration done but disks not yet detached: reads still work.
	for i := 0; i < 20; i++ {
		if err := srv.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.CompleteScaleDown(); err != nil {
		t.Fatal(err)
	}
	for st.State == StreamPlaying {
		if err := srv.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if st.Served != 300 || st.Hiccups != 0 {
		t.Fatalf("served %d hiccups %d", st.Served, st.Hiccups)
	}
	if err := srv.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestMissingBlockDetected(t *testing.T) {
	srv := newServer(t, 4)
	loadObjects(t, srv, 1, 50)
	// Sabotage: remove a block physically behind the server's back.
	d, err := srv.Lookup(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Remove(blockID(0, 10)); err != nil {
		t.Fatal(err)
	}
	if err := srv.VerifyIntegrity(); err == nil {
		t.Fatal("integrity violation not detected")
	}
	st, _ := srv.StartStream(0)
	_ = st
	var tickErr error
	for i := 0; i < 12; i++ {
		if tickErr = srv.Tick(); tickErr != nil {
			break
		}
	}
	if tickErr == nil || !strings.Contains(tickErr.Error(), "missing") {
		t.Fatalf("tick over missing block: %v", tickErr)
	}
}

func TestMigrationRemaining(t *testing.T) {
	srv := newServer(t, 4)
	loadObjects(t, srv, 2, 200)
	if srv.MigrationRemaining() != 0 {
		t.Fatal("fresh server has pending migration")
	}
	plan, err := srv.ScaleUp(1)
	if err != nil {
		t.Fatal(err)
	}
	if srv.MigrationRemaining() != len(plan.Moves) {
		t.Fatalf("remaining %d, want %d", srv.MigrationRemaining(), len(plan.Moves))
	}
}

// TestScaleUpProfileMixedArray attaches faster disks and verifies the
// admission limit stays bound by the weakest disk while everything else
// keeps working.
func TestScaleUpProfileMixedArray(t *testing.T) {
	srv := newServer(t, 4)
	loadObjects(t, srv, 4, 300)
	before := srv.capacityStreams()
	fast := disk.Cheetah73
	fast.Name = "fast"
	fast.AvgSeek /= 2
	fast.TransferBytesPerSec *= 2
	plan, err := srv.ScaleUpProfile(2, fast)
	if err != nil {
		t.Fatal(err)
	}
	for srv.Reorganizing() {
		if err := srv.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.FinishReorganization(); err != nil {
		t.Fatal(err)
	}
	if srv.N() != 6 {
		t.Fatalf("N = %d, want 6", srv.N())
	}
	if f := plan.MoveFraction(); f < 0.25 || f > 0.42 {
		t.Fatalf("moved %.3f, want ~1/3", f)
	}
	// Admission grew by exactly the old-generation capacity per new disk
	// (uniform placement is bound by the weakest disk).
	after := srv.capacityStreams()
	wantGrowth := float64(6) / float64(4)
	if got := float64(after) / float64(before); got < wantGrowth*0.95 || got > wantGrowth*1.05 {
		t.Fatalf("admission grew %.3fx, want ~%.2fx (weakest-disk bound)", got, wantGrowth)
	}
	if err := srv.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	// A slower new disk LOWERS the limit: the weakest disk binds.
	slow := disk.Barracuda180
	if _, err := srv.ScaleUpProfile(1, slow); err != nil {
		t.Fatal(err)
	}
	for srv.Reorganizing() {
		if err := srv.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.FinishReorganization(); err != nil {
		t.Fatal(err)
	}
	if got := srv.capacityStreams(); got >= after {
		t.Fatalf("slow disk did not lower admission: %d -> %d", after, got)
	}
}

func TestScaleUpProfileValidation(t *testing.T) {
	srv := newServer(t, 4)
	loadObjects(t, srv, 1, 50)
	if _, err := srv.ScaleUpProfile(1, disk.Profile{}); err == nil {
		t.Fatal("degenerate profile accepted")
	}
	if _, err := srv.ScaleUp(1); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.ScaleUpProfile(1, disk.Cheetah73); err == nil {
		t.Fatal("scale-up-profile during migration accepted")
	}
}

func TestServerWithDifferentProfiles(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Profile = disk.Barracuda180
	srv, err := NewServer(cfg, newStrategy(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	loadObjects(t, srv, 1, 50)
	if err := srv.Tick(); err != nil {
		t.Fatal(err)
	}
}

func TestObjectAccessors(t *testing.T) {
	srv := newServer(t, 4)
	objs := loadObjects(t, srv, 3, 50)
	if srv.Objects() != 3 {
		t.Fatalf("Objects() = %d", srv.Objects())
	}
	got, err := srv.Object(1)
	if err != nil || got.Seed != objs[1].Seed {
		t.Fatalf("Object(1) = %+v, %v", got, err)
	}
	if _, err := srv.Object(9); err == nil {
		t.Error("unknown object accepted")
	}
	if srv.Config().BlockBytes != 256<<10 {
		t.Fatal("config accessor wrong")
	}
	if srv.Strategy().Name() != "scaddar" {
		t.Fatal("strategy accessor wrong")
	}
}

// TestPlanOrderRepeats loads two servers with the same objects in opposite
// orders and plans the same operations on both: the move lists must be one
// list, order included, and ascending by object. The planner walks the
// catalogue twice and pairs the walks by position, and the catalogue is a Go
// map: enumerated in map order the two walks disagree with each other, let
// alone with another server.
func TestPlanOrderRepeats(t *testing.T) {
	const n, blocks = 12, 400 // more than one planner run
	a, b := newServer(t, 6), newServer(t, 6)
	for i := 0; i < n; i++ {
		if err := a.AddObject(testObject(i, blocks)); err != nil {
			t.Fatal(err)
		}
		if err := b.AddObject(testObject(n-1-i, blocks)); err != nil {
			t.Fatal(err)
		}
	}
	drain := func(srv *Server) {
		t.Helper()
		for srv.Reorganizing() {
			if err := srv.Tick(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, op := range []struct {
		name string
		plan func(*Server) (*reorg.Plan, error)
	}{
		{"scale-up", func(s *Server) (*reorg.Plan, error) { return s.ScaleUp(2) }},
		{"scale-down", func(s *Server) (*reorg.Plan, error) { return s.ScaleDown(1, 6) }},
		{"full redistribution", func(s *Server) (*reorg.Plan, error) { return s.FullRedistribute() }},
	} {
		pa, err := op.plan(a)
		if err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		pb, err := op.plan(b)
		if err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if len(pa.Moves) == 0 || !slices.Equal(pa.Moves, pb.Moves) {
			t.Fatalf("%s: %d and %d moves, not one list", op.name, len(pa.Moves), len(pb.Moves))
		}
		if !slices.IsSortedFunc(pa.Moves, func(x, y reorg.Move) int {
			return cmp.Or(cmp.Compare(a.seedOf[x.Block.Seed], a.seedOf[y.Block.Seed]), cmp.Compare(x.Block.Index, y.Block.Index))
		}) {
			t.Errorf("%s: the plan is not in catalogue order", op.name)
		}
		drain(a)
		drain(b)
		if op.name == "scale-down" {
			if err := a.CompleteScaleDown(); err != nil {
				t.Fatal(err)
			}
			if err := b.CompleteScaleDown(); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.VerifyIntegrity(); err != nil {
			t.Fatalf("after the %s: %v", op.name, err)
		}
	}
}
