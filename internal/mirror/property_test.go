package mirror

import (
	"testing"

	"scaddar/internal/placement"
	"scaddar/internal/prng"
)

// These property tests drive random scaling walks and assert the scheme's
// core invariant at every step: a block's two copies never co-locate, so
// one disk failure can never take both. The walk is seeded, so a failure
// reproduces exactly.

func newWalkStrategy(t *testing.T, n0 int) *placement.Scaddar {
	t.Helper()
	x0 := placement.NewX0Func(func(seed uint64) prng.Source { return prng.NewSplitMix64(seed) })
	strat, err := placement.NewScaddar(n0, x0)
	if err != nil {
		t.Fatal(err)
	}
	return strat
}

func walkUniverse(objects, blocksPer int) []placement.BlockRef {
	var out []placement.BlockRef
	for o := 1; o <= objects; o++ {
		for i := 0; i < blocksPer; i++ {
			out = append(out, placement.BlockRef{Seed: uint64(o), Index: uint64(i)})
		}
	}
	return out
}

// randomScaleStep applies one random add or remove to the strategy, keeping
// at least 2 disks (mirroring's floor). It returns a description for
// failure messages.
func randomScaleStep(t *testing.T, strat *placement.Scaddar, rng *prng.SplitMix64) string {
	t.Helper()
	n := strat.N()
	if n > 2 && rng.Next()%2 == 0 {
		victim := int(rng.Next() % uint64(n))
		if err := strat.RemoveDisks(victim); err != nil {
			t.Fatal(err)
		}
		return "remove"
	}
	count := 1 + int(rng.Next()%3)
	if err := strat.AddDisks(count); err != nil {
		t.Fatal(err)
	}
	return "add"
}

func TestPropertyCopiesNeverCoLocate(t *testing.T) {
	for _, offset := range []struct {
		name string
		fn   OffsetFunc
	}{{"half", HalfOffset}, {"next", func(int) int { return 1 }}} {
		t.Run(offset.name, func(t *testing.T) {
			strat := newWalkStrategy(t, 4)
			m, err := New(strat, offset.fn)
			if err != nil {
				t.Fatal(err)
			}
			blocks := walkUniverse(6, 120)
			rng := prng.NewSplitMix64(31)
			for step := 0; step < 25; step++ {
				op := randomScaleStep(t, strat, rng)
				for _, b := range blocks {
					p, mir, err := m.Locate(b)
					if err != nil {
						t.Fatalf("step %d (%s, N=%d): %v", step, op, strat.N(), err)
					}
					if p == mir {
						t.Fatalf("step %d (%s, N=%d): block %+v co-locates both copies on disk %d",
							step, op, strat.N(), b, p)
					}
					if p < 0 || p >= strat.N() || mir < 0 || mir >= strat.N() {
						t.Fatalf("step %d: copies (%d,%d) outside [0,%d)", step, p, mir, strat.N())
					}
				}
			}
		})
	}
}

func TestPropertySingleFailureAlwaysReadable(t *testing.T) {
	strat := newWalkStrategy(t, 5)
	m, err := New(strat, nil)
	if err != nil {
		t.Fatal(err)
	}
	blocks := walkUniverse(4, 100)
	rng := prng.NewSplitMix64(77)
	for step := 0; step < 15; step++ {
		randomScaleStep(t, strat, rng)
		for f := 0; f < strat.N(); f++ {
			rep, err := m.Survive(blocks, map[int]bool{f: true})
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if rep.Lost != 0 {
				t.Fatalf("step %d (N=%d): failing disk %d loses %d blocks under mirroring",
					step, strat.N(), f, rep.Lost)
			}
			if rep.Readable != len(blocks) {
				t.Fatalf("step %d: %d of %d blocks readable", step, rep.Readable, len(blocks))
			}
		}
	}
}
