package reorg

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"scaddar/internal/placement"
	"scaddar/internal/prng"
)

// universeSource enumerates planUniverse(nobj, blocksPer) without building it,
// the way a catalogue does.
func universeSource(nobj, blocksPer int) Source {
	return func(yield func(placement.BlockRef)) {
		for o := 0; o < nobj; o++ {
			for i := 0; i < blocksPer; i++ {
				yield(placement.BlockRef{Seed: uint64(o + 1), Index: uint64(i)})
			}
		}
	}
}

// serialRebaseliner is serialOnly for a strategy that can rebaseline.
type serialRebaseliner struct {
	placement.Strategy
	rebaseline func() error
}

func (s serialRebaseliner) Rebaseline() error { return s.rebaseline() }

// referencePlan is the planner written out the long way, over a block list in
// memory: every disk before, the operation, every disk after (through planOf
// when the operation renumbers), a move wherever the two differ.
func referencePlan(t *testing.T, s placement.Strategy, blocks []placement.BlockRef, mutate func() error, planOf func() []int) *Plan {
	t.Helper()
	plan := &Plan{NBefore: s.N(), Blocks: len(blocks)}
	before := placement.Snapshot(s, blocks)
	if err := mutate(); err != nil {
		t.Fatal(err)
	}
	plan.NAfter = s.N()
	after, translate := placement.Snapshot(s, blocks), planOf()
	for i, b := range blocks {
		to := after[i]
		if translate != nil {
			to = translate[to]
		}
		if before[i] != to {
			plan.Moves = append(plan.Moves, Move{Block: b, From: before[i], To: to})
		}
	}
	return plan
}

// TestPlanFromSourceMatchesSlice plans each kind of operation three ways — the
// long way over a list, the slice form, the enumerated form — over a universe
// of two full runs and a part, for SCADDAR and for a strategy without a bulk
// path, and wants one plan: same moves, same order.
func TestPlanFromSourceMatchesSlice(t *testing.T) {
	const nobj, blocksPer = 3, 3000
	blocks, src := planUniverse(nobj, blocksPer), universeSource(nobj, blocksPer)
	identity := func() []int { return nil }
	removed := []int{7, 2}
	preOf := func() []int { // post-removal index → pre-removal index, 10 disks less 2 and 7
		return []int{0, 1, 3, 4, 5, 6, 8, 9}
	}
	for _, bulk := range []bool{true, false} {
		face := func(s *placement.Scaddar) Rebaseliner {
			if bulk {
				return s
			}
			return serialRebaseliner{serialOnly{s}, s.Rebaseline}
		}
		check := func(op string, want, fromSlice, fromSource *Plan, err1, err2 error) {
			t.Helper()
			if err1 != nil || err2 != nil {
				t.Fatalf("%s (bulk %v): %v, %v", op, bulk, err1, err2)
			}
			if len(want.Moves) == 0 || !slices.Equal(fromSlice.Moves, want.Moves) || !reflect.DeepEqual(fromSlice, fromSource) {
				t.Errorf("%s (bulk %v): %d moves the long way, %d from the slice, %d from the source; want one non-empty plan",
					op, bulk, len(want.Moves), len(fromSlice.Moves), len(fromSource.Moves))
			}
			if fromSlice.NBefore != want.NBefore || fromSlice.NAfter != want.NAfter || fromSlice.Blocks != want.Blocks {
				t.Errorf("%s (bulk %v): plan header %d → %d over %d, want %d → %d over %d", op, bulk,
					fromSlice.NBefore, fromSlice.NAfter, fromSlice.Blocks, want.NBefore, want.NAfter, want.Blocks)
			}
		}
		a, b, c := newPlanStrategy(t, 10), newPlanStrategy(t, 10), newPlanStrategy(t, 10)
		want := referencePlan(t, face(a), blocks, func() error { return a.AddDisks(3) }, identity)
		p1, err1 := PlanAdd(face(b), blocks, 3)
		p2, err2 := PlanAddFrom(face(c), src, 3)
		check("add", want, p1, p2, err1, err2)

		a, b, c = newPlanStrategy(t, 10), newPlanStrategy(t, 10), newPlanStrategy(t, 10)
		want = referencePlan(t, face(a), blocks, func() error { return a.RemoveDisks(removed...) }, preOf)
		p1, err1 = PlanRemove(face(b), blocks, removed...)
		p2, err2 = PlanRemoveFrom(face(c), src, removed...)
		check("remove", want, p1, p2, err1, err2)

		a, b, c = newPlanStrategy(t, 10), newPlanStrategy(t, 10), newPlanStrategy(t, 10)
		want = referencePlan(t, face(a), blocks, a.Rebaseline, identity)
		p1, err1 = PlanRebaseline(face(b), sliceSource(blocks))
		p2, err2 = PlanRebaseline(face(c), src)
		check("rebaseline", want, p1, p2, err1, err2)
	}
	// An operation the strategy refuses plans nothing, and an empty catalogue
	// plans an empty plan.
	if _, err := PlanAddFrom(newPlanStrategy(t, 4), src, 0); err == nil {
		t.Error("adding 0 disks planned something")
	}
	if plan, err := PlanRemoveFrom(newPlanStrategy(t, 4), universeSource(0, 0), 1); err != nil || plan.Blocks != 0 || len(plan.Moves) != 0 || plan.NAfter != 3 {
		t.Errorf("a removal over no blocks = %+v, %v", plan, err)
	}
}

// TestPlanAllocsBounded pins what planning costs in memory: over 128 k blocks
// it allocates an int32 a block, the move list it returns, and less than
// 128 KiB besides — the two run buffers (4,096 × 24 bytes) and the sweeps'
// fan-out — where a planner over a materialised list allocates the list
// (2 MiB), two 1 MiB disk vectors and a move list grown by doubling.
func TestPlanAllocsBounded(t *testing.T) {
	const nobj, blocksPer = 128, 1024
	x0 := placement.NewX0Func(func(seed uint64) prng.Source { return prng.NewSplitMix64(seed) })
	src := universeSource(nobj, blocksPer)
	plan := func() (*Plan, uint64) {
		strat, err := placement.NewScaddar(8, x0)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := PlanAddFrom(strat, src, 2)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return p, after.TotalAlloc - before.TotalAlloc
	}
	plan() // the X0 source memoizes a sequence per object: not the planner's
	p, allocated := plan()
	if len(p.Moves) == 0 || len(p.Moves) > cap(p.Moves) || cap(p.Moves) > p.Blocks/4+p.Blocks/50 {
		t.Fatalf("%d moves in a list of capacity %d over %d blocks: want z = 0.2 of them, presized close", len(p.Moves), cap(p.Moves), p.Blocks)
	}
	bound := uint64(4*p.Blocks + 32*cap(p.Moves) + 128<<10)
	t.Logf("planning %d blocks allocated %d bytes: %d for the disks before, %d for %d moves (capacity %d), %d besides",
		p.Blocks, allocated, 4*p.Blocks, 32*cap(p.Moves), len(p.Moves), cap(p.Moves), int64(allocated)-int64(4*p.Blocks+32*cap(p.Moves)))
	if allocated > bound {
		t.Errorf("planning %d blocks allocated %d bytes, want at most %d", p.Blocks, allocated, bound)
	}
}
