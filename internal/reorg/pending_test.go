package reorg

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"scaddar/internal/disk"
	"scaddar/internal/placement"
)

// refModel is the naive pending set the stamped one replaced: a slice in
// plan order plus a map, both rewritten on every change. It is the
// differential reference, so it is written to be obviously right, not fast.
type refModel struct {
	pending []Move
	by      map[placement.BlockRef]int
}

func newRefModel(moves []Move) *refModel {
	r := &refModel{pending: append([]Move(nil), moves...), by: make(map[placement.BlockRef]int)}
	for _, m := range moves {
		r.by[m.Block] = m.From
	}
	return r
}

// drop removes every pending move keep rejects and returns the rejected ones.
func (r *refModel) drop(keep func(Move) bool) []Move {
	var out, kept []Move
	for _, m := range r.pending {
		if keep(m) {
			kept = append(kept, m)
		} else {
			out = append(out, m)
			delete(r.by, m.Block)
		}
	}
	r.pending = kept
	return out
}

// step mirrors Executor.Step's budget rule.
func (r *refModel) step(budget []int) []Move {
	return r.drop(func(m Move) bool {
		if budget[m.From] <= 0 || budget[m.To] <= 0 {
			return true
		}
		budget[m.From]--
		budget[m.To]--
		return false
	})
}

// viewMoves lists a view's pending moves.
func viewMoves(v PendingView) []Move {
	var out []Move
	v.Each(func(m Move) { out = append(out, m) })
	return out
}

// assertAgrees compares every read the executor offers against the model.
func assertAgrees(t *testing.T, step int, exec *Executor, ref *refModel, plan *Plan) {
	t.Helper()
	if exec.Remaining() != len(ref.pending) || exec.Done() != (len(ref.pending) == 0) {
		t.Fatalf("step %d: Remaining=%d Done=%v, model has %d pending", step, exec.Remaining(), exec.Done(), len(ref.pending))
	}
	v := exec.View()
	if v.Len() != len(ref.pending) {
		t.Fatalf("step %d: view Len=%d, model %d", step, v.Len(), len(ref.pending))
	}
	if got := viewMoves(v); !reflect.DeepEqual(got, ref.pending) {
		t.Fatalf("step %d: view lists %d moves, model %d, or in another order", step, len(got), len(ref.pending))
	}
	for _, m := range plan.Moves {
		wantFrom, want := ref.by[m.Block]
		if from, pending := exec.PendingSource(m.Block); pending != want || from != wantFrom {
			t.Fatalf("step %d: PendingSource(%+v) = %d %v, model %d %v", step, m.Block, from, pending, wantFrom, want)
		}
	}
}

// TestPendingSetMatchesReferenceModel drives random Step / ExecuteBlock /
// ExtractBySource sequences against the naive model and, at the end, checks
// that every view taken on the way still reads as it did when taken.
func TestPendingSetMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := newHarness(t, 6, 8, 120)
		plan, err := PlanAdd(h.strat, h.blocks, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.array.Add(2, disk.Cheetah73); err != nil {
			t.Fatal(err)
		}
		exec, err := NewExecutor(plan, blockIDOf, h.array.Disk)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefModel(plan.Moves)
		type frozen struct {
			view PendingView
			want []Move
		}
		var views []frozen
		extracted := 0
		for step := 0; !exec.Done(); step++ {
			views = append(views, frozen{exec.View(), append([]Move(nil), ref.pending...)})
			switch op := rng.Intn(10); {
			case op < 6:
				budget := make([]int, h.array.N())
				for i := range budget {
					budget[i] = rng.Intn(12)
				}
				want := ref.step(append([]int(nil), budget...))
				moved, err := exec.Step(budget)
				if err != nil {
					t.Fatal(err)
				}
				var wantLog []placement.BlockRef
				for _, m := range want {
					wantLog = append(wantLog, m.Block)
				}
				if got := exec.TakeMoved(); moved != len(want) || !slices.Equal(got, wantLog) {
					t.Fatalf("seed %d step %d: Step moved %d (log %d), model %d", seed, step, moved, len(got), len(want))
				}
			case op < 9:
				m := ref.pending[rng.Intn(len(ref.pending))]
				ref.drop(func(x Move) bool { return x.Block != m.Block })
				if err := exec.ExecuteBlock(m.Block); err != nil {
					t.Fatal(err)
				}
				if err := exec.ExecuteBlock(m.Block); err == nil {
					t.Fatalf("seed %d step %d: ExecuteBlock ran %+v twice", seed, step, m.Block)
				}
			default:
				from := rng.Intn(6)
				want := ref.drop(func(x Move) bool { return x.From != from })
				got := exec.ExtractBySource(from)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: extracted %d moves from disk %d, model %d", seed, step, len(got), from, len(want))
				}
				extracted += len(got)
			}
			assertAgrees(t, step, exec, ref, plan)
		}
		if exec.Moved()+extracted != len(plan.Moves) {
			t.Fatalf("seed %d: moved %d + extracted %d != %d planned", seed, exec.Moved(), extracted, len(plan.Moves))
		}
		for i, f := range views {
			if got := viewMoves(f.view); !reflect.DeepEqual(got, f.want) {
				t.Fatalf("seed %d: view %d drifted: lists %d moves, had %d when taken", seed, i, len(got), len(f.want))
			}
		}
	}
}

// TestFailedMoveStaysPending is the regression test for Step's error path,
// which used to drop the move that failed from the pending list while
// leaving it in the source map: Remaining/Done and PendingSource disagreed
// from then on and a migration could report drained with a block never
// moved. A move that fails must stay pending in every view, leave the
// metadata where it was, and succeed when retried.
func TestFailedMoveStaysPending(t *testing.T) {
	boom := errors.New("injected")
	for _, where := range []string{"disk resolver", "payload mover"} {
		t.Run(where, func(t *testing.T) {
			h := newHarness(t, 4, 4, 100)
			plan, err := PlanAdd(h.strat, h.blocks, 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.array.Add(1, disk.Cheetah73); err != nil {
				t.Fatal(err)
			}
			const failAt = 3 // the fourth move fails, once
			calls, failing := 0, true
			trip := func() error {
				if failing && calls == failAt {
					return boom
				}
				return nil
			}
			diskOf := h.array.Disk
			if where == "disk resolver" {
				diskOf = func(logical int) (*disk.Disk, error) {
					if logical >= h.array.N()-1 { // the destination: once per move
						if err := trip(); err != nil {
							return nil, err
						}
						calls++
					}
					return h.array.Disk(logical)
				}
			}
			exec, err := NewExecutor(plan, blockIDOf, diskOf)
			if err != nil {
				t.Fatal(err)
			}
			if where == "payload mover" {
				exec.SetPayloadMover(func(placement.BlockRef, disk.BlockID, *disk.Disk, *disk.Disk) error {
					if err := trip(); err != nil {
						return err
					}
					calls++
					return nil
				})
			}
			budget := make([]int, h.array.N())
			for i := range budget {
				budget[i] = len(plan.Moves)
			}
			moved, err := exec.Step(budget)
			if !errors.Is(err, boom) || moved != failAt {
				t.Fatalf("Step = %d, %v; want %d moves then the injected error", moved, err, failAt)
			}
			failed := plan.Moves[failAt]
			if exec.Remaining() != len(plan.Moves)-failAt || exec.Done() {
				t.Fatalf("Remaining = %d after %d of %d moves", exec.Remaining(), failAt, len(plan.Moves))
			}
			if from, pending := exec.PendingSource(failed.Block); !pending || from != failed.From {
				t.Fatalf("failed move: PendingSource = %d %v, want %d true", from, pending, failed.From)
			}
			if got := viewMoves(exec.View()); !reflect.DeepEqual(got, plan.Moves[failAt:]) {
				t.Fatalf("view lists %d pending moves, want the %d from the failed one on", len(got), len(plan.Moves)-failAt)
			}
			src, _ := h.array.Disk(failed.From)
			dst, _ := h.array.Disk(failed.To)
			if !src.Has(blockIDOf(failed.Block)) || dst.Has(blockIDOf(failed.Block)) {
				t.Fatal("failed move left its block's metadata off the source disk")
			}
			failing = false
			if _, err := exec.ExecuteAll(); err != nil {
				t.Fatal(err)
			}
			if !exec.Done() || exec.Moved() != len(plan.Moves) {
				t.Fatalf("retry moved %d of %d", exec.Moved(), len(plan.Moves))
			}
			h.verify(t)
		})
	}
}

// TestPendingViewConcurrentReaders reads old views from several goroutines
// while the owner keeps executing: each view must keep answering as of the
// moment it was taken (run under -race).
func TestPendingViewConcurrentReaders(t *testing.T) {
	h := newHarness(t, 4, 8, 200)
	plan, err := PlanAdd(h.strat, h.blocks, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.array.Add(2, disk.Cheetah73); err != nil {
		t.Fatal(err)
	}
	exec, err := NewExecutor(plan, blockIDOf, h.array.Disk)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for !exec.Done() {
		view, remaining := exec.View(), exec.Remaining()
		pendingThen := make(map[placement.BlockRef]bool, remaining)
		view.Each(func(m Move) { pendingThen[m.Block] = true })
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				for _, m := range plan.Moves {
					from, pending := view.Source(m.Block)
					if pending != pendingThen[m.Block] || (pending && from != m.From) {
						t.Errorf("view of %d pending: Source(%+v) = %d %v", remaining, m.Block, from, pending)
						return
					}
				}
			}
		}()
		budget := []int{9, 9, 9, 9, 9, 9}
		if _, err := exec.Step(budget); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}
