package reorg

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"scaddar/internal/disk"
	"scaddar/internal/placement"
	"scaddar/internal/prng"
)

// fullScanStep is Step as it was before it learned to stop: it walks every
// pending move of the round whatever the budgets say. It is the differential
// reference for Step, so it stays as it was written.
func fullScanStep(e *Executor, budget []int) (moved int, err error) {
	e.rounds++
	kept := e.order[:0]
	for k, i := range e.order {
		if e.set.doneAt[i].Load() != 0 {
			continue
		}
		m := e.set.moves[i]
		switch {
		case m.From >= len(budget) || m.To >= len(budget):
			err = fmt.Errorf("reorg: move endpoints %d→%d outside budget of %d disks", m.From, m.To, len(budget))
		case budget[m.From] <= 0 || budget[m.To] <= 0:
			kept = append(kept, i)
			continue
		default:
			err = e.executeOne(i)
		}
		if err != nil {
			e.order = append(kept, e.order[k:]...)
			return moved, err
		}
		e.movedLog = append(e.movedLog, m.Block)
		budget[m.From]--
		budget[m.To]--
		moved++
	}
	e.order = kept
	return moved, nil
}

// TestStepMatchesFullScan runs one plan on two identical arrays, one with
// Step and one with the full scan, under the same random script: budgets
// (some shorter than the plan's disks, some negative), ExtractBySource, and a
// payload mover that fails now and then. Every round must move the same
// blocks in the same order, fail with the same error, spend the same budget
// and leave the same moves pending — for scale-ups, scale-downs and complete
// redistributions.
func TestStepMatchesFullScan(t *testing.T) {
	boom := errors.New("injected mover failure")
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		kind := []string{"add", "remove", "redistribute"}[seed%3]
		t.Run(fmt.Sprintf("%s/seed=%d", kind, seed), func(t *testing.T) {
			round := 0
			mover := func(b placement.BlockRef, _ disk.BlockID, _, _ *disk.Disk) error {
				if (b.Seed*31+b.Index+uint64(round))%23 == 0 {
					return boom
				}
				return nil
			}
			var execs [2]*Executor
			var plan *Plan
			for j := range execs {
				h := newHarness(t, 6, 6, 150)
				var err error
				switch kind {
				case "add":
					if plan, err = PlanAdd(h.strat, h.blocks, 1+int(seed%3)); err == nil {
						_, err = h.array.Add(plan.NAfter-plan.NBefore, disk.Cheetah73)
					}
				case "remove":
					plan, err = PlanRemove(h.strat, h.blocks, int(seed%6), int(seed+3)%6)
				default:
					plan, err = PlanRebaseline(h.strat, sliceSource(h.blocks))
				}
				if err != nil {
					t.Fatal(err)
				}
				if execs[j], err = NewExecutor(plan, blockIDOf, h.array.Disk); err != nil {
					t.Fatal(err)
				}
				execs[j].SetPayloadMover(mover)
			}
			n := max(plan.NBefore, plan.NAfter)
			for ; !execs[0].Done(); round++ {
				if round > 5000 {
					t.Fatal("the script does not drain the plan")
				}
				if rng.Intn(12) == 0 {
					from := rng.Intn(n)
					if a, b := execs[0].ExtractBySource(from), execs[1].ExtractBySource(from); !reflect.DeepEqual(a, b) {
						t.Fatalf("round %d: ExtractBySource(%d) = %d moves, full scan %d", round, from, len(a), len(b))
					}
					continue
				}
				width := n
				if rng.Intn(8) == 0 {
					width = rng.Intn(n)
				}
				budget := make([]int, width)
				for i := range budget {
					budget[i] = rng.Intn(14) - 2
				}
				ref := slices.Clone(budget)
				moved, err := execs[0].Step(budget)
				wantMoved, wantErr := fullScanStep(execs[1], ref)
				if moved != wantMoved || fmt.Sprint(err) != fmt.Sprint(wantErr) || !slices.Equal(budget, ref) {
					t.Fatalf("round %d: Step = %d, %v, budget left %v; full scan %d, %v, %v", round, moved, err, budget, wantMoved, wantErr, ref)
				}
				if got, want := execs[0].TakeMoved(), execs[1].TakeMoved(); !slices.Equal(got, want) {
					t.Fatalf("round %d: Step moved %v, full scan %v", round, got, want)
				}
				if got, want := viewMoves(execs[0].View()), viewMoves(execs[1].View()); !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d: %d moves pending after Step, %d after the full scan", round, len(got), len(want))
				}
			}
			if !execs[1].Done() || execs[0].Moved() != execs[1].Moved() {
				t.Fatalf("Step moved %d, the full scan %d (done: %v)", execs[0].Moved(), execs[1].Moved(), execs[1].Done())
			}
		})
	}
}

// BenchmarkStep is one round of reorg_durable's operation: a scale-up of a
// 128,000-block catalogue from 8 disks to 10 — some 25,600 moves — at 132
// blocks per disk per round, which the two new disks' budgets end. Every
// iteration is one Step plus the TakeMoved the server journals from; a
// drained plan is put back, off the clock, and run again.
func BenchmarkStep(b *testing.B) {
	x0 := placement.NewX0Func(func(seed uint64) prng.Source { return prng.NewSplitMix64(seed) })
	strat, err := placement.NewScaddar(8, x0)
	if err != nil {
		b.Fatal(err)
	}
	array, err := disk.NewArray(8, disk.Cheetah73)
	if err != nil {
		b.Fatal(err)
	}
	src := universeSource(64, 2000)
	var placeErr error
	src(func(ref placement.BlockRef) {
		if d, err := array.Disk(strat.Disk(ref)); err != nil {
			placeErr = err
		} else if err := d.Store(blockIDOf(ref)); err != nil {
			placeErr = err
		}
	})
	if placeErr != nil {
		b.Fatal(placeErr)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // the planner's fan-out, as in BenchmarkPlanAdd
	plan, err := PlanAddFrom(strat, src, 2)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := array.Add(2, disk.Cheetah73); err != nil {
		b.Fatal(err)
	}
	budget := make([]int, array.N())
	fresh := func() *Executor {
		for _, m := range plan.Moves { // back where the plan found them
			from, _ := array.Disk(m.From)
			to, _ := array.Disk(m.To)
			if to.Has(blockIDOf(m.Block)) {
				_ = to.Remove(blockIDOf(m.Block))
				_ = from.Store(blockIDOf(m.Block))
			}
		}
		exec, err := NewExecutor(plan, blockIDOf, array.Disk)
		if err != nil {
			b.Fatal(err)
		}
		return exec
	}
	step := func(exec *Executor) {
		for i := range budget {
			budget[i] = 132
		}
		if _, err := exec.Step(budget); err != nil {
			b.Fatal(err)
		}
		exec.TakeMoved()
	}
	// One drain before the clock starts: the new disks' inventories grow to
	// their size once, as a live array's did long ago.
	exec := fresh()
	for !exec.Done() {
		step(exec)
	}
	exec = fresh()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if exec.Done() {
			b.StopTimer()
			exec = fresh()
			b.StartTimer()
		}
		step(exec)
	}
	b.ReportMetric(float64(len(plan.Moves)), "moves/plan")
}
