package scaddar

import (
	"encoding/json"
	"math"
	"testing"

	"scaddar/internal/prng"
)

// interpLocate is the interpreted reference for CompiledChain.Locate: the
// original per-operation Step walk with hardware division.
func interpLocate(h *History, x0 uint64) int {
	return h.DiskAt(x0, h.Ops())
}

// interpFinal is the interpreted reference for CompiledChain.Final.
func interpFinal(h *History, x0 uint64) (uint64, int) {
	x := x0
	for j := 1; j <= h.Ops(); j++ {
		x, _ = h.Step(j, x)
	}
	return x, int(x % uint64(h.N()))
}

// interpMoved is the interpreted reference for CompiledChain.Moved.
func interpMoved(h *History, x0 uint64) (moved bool, before, after int) {
	if h.Ops() == 0 {
		d := int(x0 % uint64(h.N()))
		return false, d, d
	}
	x := x0
	for j := 1; j < h.Ops(); j++ {
		x, _ = h.Step(j, x)
	}
	before = int(x % uint64(h.NAt(h.Ops()-1)))
	xj, movedStep := h.Step(h.Ops(), x)
	return movedStep, before, int(xj % uint64(h.N()))
}

// randomHistory builds a deterministic pseudo-random history of nops mixed
// operations from a seed.
func randomHistory(t testing.TB, seed uint64, n0, nops int) *History {
	t.Helper()
	src := prng.NewSplitMix64(seed)
	h := MustNewHistory(n0)
	for i := 0; i < nops; i++ {
		r := src.Next()
		if h.N() > 1 && r%3 == 0 {
			k := int(r/3%3) + 1
			if k > h.N()-1 {
				k = h.N() - 1
			}
			seen := make(map[int]bool)
			var idx []int
			for len(idx) < k {
				cand := int(src.Next() % uint64(h.N()))
				if !seen[cand] {
					seen[cand] = true
					idx = append(idx, cand)
				}
			}
			if _, err := h.Remove(idx...); err != nil {
				t.Fatalf("remove %v: %v", idx, err)
			}
		} else {
			if _, err := h.Add(int(r%8) + 1); err != nil {
				t.Fatalf("add: %v", err)
			}
		}
	}
	return h
}

func TestCompiledMatchesInterpreted(t *testing.T) {
	src := prng.NewSplitMix64(0xC0FFEE)
	for hi := 0; hi < 40; hi++ {
		h := randomHistory(t, uint64(hi)*0x9E3779B97F4A7C15+1, int(src.Next()%16)+1, int(src.Next()%13))
		chain := h.Compile()
		if chain.N() != h.N() || chain.Ops() != h.Ops() {
			t.Fatalf("history %d: chain shape (%d disks, %d ops) != history (%d, %d)",
				hi, chain.N(), chain.Ops(), h.N(), h.Ops())
		}
		for bi := 0; bi < 200; bi++ {
			x0 := src.Next()
			if got, want := chain.Locate(x0), interpLocate(h, x0); got != want {
				t.Fatalf("history %d %v: Locate(%d) = %d, interpreted %d", hi, h, x0, got, want)
			}
			gx, gd := chain.Final(x0)
			wx, wd := interpFinal(h, x0)
			if gx != wx || gd != wd {
				t.Fatalf("history %d %v: Final(%d) = (%d,%d), interpreted (%d,%d)", hi, h, x0, gx, gd, wx, wd)
			}
			gm, gb, ga := chain.Moved(x0)
			wm, wb, wa := interpMoved(h, x0)
			if gm != wm || gb != wb || ga != wa {
				t.Fatalf("history %d %v: Moved(%d) = (%v,%d,%d), interpreted (%v,%d,%d)",
					hi, h, x0, gm, gb, ga, wm, wb, wa)
			}
		}
	}
}

// checkChainState asserts the invariant the (Q, d) formulation rests on, at
// every prefix k of the history: the pair the compiled chain carries after k
// operations is the interpreted X_k split by N_k — Q·N_k + d == X_k with
// d < N_k — so d is the block's disk after k operations and Final and Moved
// fall out of it.
func checkChainState(t testing.TB, h *History, chain *CompiledChain, x0 uint64) {
	t.Helper()
	trace := h.Trace(x0)
	for k := 0; k <= h.Ops(); k++ {
		q, d := chain.walk(x0, chain.ops[:k])
		if nk := uint64(h.NAt(k)); d >= nk || q*nk+d != trace[k] {
			t.Fatalf("%v: x0=%d after %d ops: (Q,d) = (%d,%d) over N=%d, interpreted X_%d = %d",
				h, x0, k, q, d, nk, k, trace[k])
		}
	}
}

// mustOps applies a schedule to a fresh history: a positive entry adds that
// many disks, a negative entry -k removes k disks spread over the array.
func mustOps(t testing.TB, n0 int, schedule ...int) *History {
	t.Helper()
	h := MustNewHistory(n0)
	for _, op := range schedule {
		var err error
		if op > 0 {
			_, err = h.Add(op)
		} else {
			idx := make([]int, -op)
			for i := range idx {
				idx[i] = i * h.N() / -op
			}
			_, err = h.Remove(idx...)
		}
		if err != nil {
			t.Fatalf("schedule %v over N0=%d: %v", schedule, n0, err)
		}
	}
	return h
}

func TestChainStateMatchesTraceAtEveryPrefix(t *testing.T) {
	for _, d := range []uint64{7, 14, 23} {
		if newMagicDiv(d).alg != algUp {
			t.Fatalf("divisor %d no longer compiles to the round-up magic; pick another for the algUp shape", d)
		}
	}
	wide := mustOps(t, 3, survivorTableBudget+100, -4, 5, -3, 1)
	if wide.Compile().ops[1].survivor != nil {
		t.Fatal("over-budget removal materialized a survivor table; the binary-search arm is not covered")
	}
	shapes := map[string]*History{
		"no ops":          mustOps(t, 5),
		"through N=1":     mustOps(t, 1, 1, -1, 3, -3, 1, 1, -2),
		"powers of two":   mustOps(t, 8, 8, -8, 24, -16, 16, 32, -32),
		"round-up magics": mustOps(t, 7, 7, -7, 16, -9, 9, -9, 2, 5),
		"wide removal":    wide,
		"random mix":      randomHistory(t, 0xD1CE, 9, 12),
	}
	src := prng.NewSplitMix64(0xFACADE)
	for name, h := range shapes {
		chain := h.Compile()
		xs := []uint64{0, 1, 1 << 32, math.MaxUint64, math.MaxUint64 - 1, 1<<32 - 1}
		for i := 0; i < 300; i++ {
			xs = append(xs, src.Next())
		}
		for _, x0 := range xs {
			checkChainState(t, h, chain, x0)
			if got, want := chain.Locate(x0), interpLocate(h, x0); got != want {
				t.Fatalf("%s: Locate(%d) = %d, interpreted %d", name, x0, got, want)
			}
			gx, gd := chain.Final(x0)
			if wx, wd := interpFinal(h, x0); gx != wx || gd != wd {
				t.Fatalf("%s: Final(%d) = (%d,%d), interpreted (%d,%d)", name, x0, gx, gd, wx, wd)
			}
			gm, gb, ga := chain.Moved(x0)
			if wm, wb, wa := interpMoved(h, x0); gm != wm || gb != wb || ga != wa {
				t.Fatalf("%s: Moved(%d) = (%v,%d,%d), interpreted (%v,%d,%d)", name, x0, gm, gb, ga, wm, wb, wa)
			}
		}
		out := make([]int, len(xs))
		chain.LocateBatch(xs, out)
		for i, x0 := range xs {
			if want := interpLocate(h, x0); out[i] != want {
				t.Fatalf("%s: batch[%d] = %d, interpreted %d", name, i, out[i], want)
			}
		}
	}
}

func TestCompileCachesUntilMutation(t *testing.T) {
	h := MustNewHistory(4)
	c1 := h.Compile()
	if !c1.Valid() {
		t.Fatal("fresh chain reports invalid")
	}
	if c2 := h.Compile(); c2 != c1 {
		t.Fatal("second Compile did not reuse the cached chain")
	}
	v := h.Version()
	if _, err := h.Add(2); err != nil {
		t.Fatal(err)
	}
	if h.Version() <= v {
		t.Fatalf("Add did not raise the version: %d -> %d", v, h.Version())
	}
	if c1.Valid() {
		t.Fatal("stale chain still reports valid after Add")
	}
	c3 := h.Compile()
	if c3 == c1 {
		t.Fatal("Compile returned the stale chain after mutation")
	}
	if c3.N() != 6 || !c3.Valid() {
		t.Fatalf("recompiled chain wrong: N=%d valid=%v", c3.N(), c3.Valid())
	}
	if _, err := h.Remove(1); err != nil {
		t.Fatal(err)
	}
	if c3.Valid() {
		t.Fatal("stale chain still reports valid after Remove")
	}
}

func TestDecodeInvalidatesCompiled(t *testing.T) {
	h := MustNewHistory(4)
	if _, err := h.Add(3); err != nil {
		t.Fatal(err)
	}
	chain := h.Compile()

	other := MustNewHistory(9)
	if _, err := other.Remove(2); err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(other)
	if err != nil {
		t.Fatal(err)
	}
	v := h.Version()
	if err := json.Unmarshal(blob, h); err != nil {
		t.Fatal(err)
	}
	if h.Version() <= v {
		t.Fatalf("decode did not raise the version: %d -> %d", v, h.Version())
	}
	if chain.Valid() {
		t.Fatal("pre-decode chain still reports valid")
	}
	if got, want := h.Compile().Locate(12345), interpLocate(h, 12345); got != want {
		t.Fatalf("post-decode Locate = %d, interpreted %d", got, want)
	}
}

func TestLocateBatchMatchesLocate(t *testing.T) {
	h := randomHistory(t, 77, 8, 10)
	chain := h.Compile()
	src := prng.NewSplitMix64(99)
	for _, n := range []int{0, 1, 2, 255, 256, 257, 512, 1000} {
		xs := make([]uint64, n)
		for i := range xs {
			xs[i] = src.Next()
		}
		out := make([]int, n)
		chain.LocateBatch(xs, out)
		for i, x0 := range xs {
			if want := chain.Locate(x0); out[i] != want {
				t.Fatalf("n=%d: batch[%d] = %d, Locate = %d", n, i, out[i], want)
			}
		}
	}
}

func TestLocateBatchShortOutputPanics(t *testing.T) {
	chain := MustNewHistory(4).Compile()
	defer func() {
		if recover() == nil {
			t.Fatal("LocateBatch with short output did not panic")
		}
	}()
	chain.LocateBatch(make([]uint64, 8), make([]int, 7))
}

func TestSurvivorSearchFallback(t *testing.T) {
	// An array wider than the survivor-table budget forces the removal op
	// onto the binary-search path.
	h := MustNewHistory(3)
	if _, err := h.Add(survivorTableBudget + 100); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Remove(0, 5, survivorTableBudget/2, survivorTableBudget+50); err != nil {
		t.Fatal(err)
	}
	chain := h.Compile()
	last := &chain.ops[len(chain.ops)-1]
	if last.survivor != nil {
		t.Fatal("over-budget removal still materialized a survivor table")
	}
	if len(last.removed) != 4 {
		t.Fatalf("fallback removal list has %d entries, want 4", len(last.removed))
	}
	src := prng.NewSplitMix64(5)
	for i := 0; i < 500; i++ {
		x0 := src.Next()
		if got, want := chain.Locate(x0), interpLocate(h, x0); got != want {
			t.Fatalf("fallback Locate(%d) = %d, interpreted %d", x0, got, want)
		}
	}
	xs := make([]uint64, 300)
	for i := range xs {
		xs[i] = src.Next()
	}
	out := make([]int, len(xs))
	chain.LocateBatch(xs, out)
	for i, x0 := range xs {
		if want := interpLocate(h, x0); out[i] != want {
			t.Fatalf("fallback batch[%d] = %d, interpreted %d", i, out[i], want)
		}
	}
}

func TestSurvivorSearchDirect(t *testing.T) {
	removed := []int{2, 5, 6, 9}
	wantIdx := map[uint64]uint64{0: 0, 1: 1, 3: 2, 4: 3, 7: 4, 8: 5, 10: 6, 11: 7}
	for r := uint64(0); r < 12; r++ {
		idx, gone := survivorSearch(r, removed)
		if want, ok := wantIdx[r]; ok {
			if gone || idx != want {
				t.Fatalf("survivorSearch(%d) = (%d,%v), want (%d,false)", r, idx, gone, want)
			}
		} else if !gone {
			t.Fatalf("survivorSearch(%d) did not report removed", r)
		}
	}
}

func TestCompiledZeroAlloc(t *testing.T) {
	h := randomHistory(t, 31, 8, 12)
	chain := h.Compile()
	xs := make([]uint64, 1024)
	src := prng.NewSplitMix64(13)
	for i := range xs {
		xs[i] = src.Next()
	}
	out := make([]int, len(xs))
	sink := 0
	if n := testing.AllocsPerRun(100, func() { sink += chain.Locate(xs[0]) }); n != 0 {
		t.Fatalf("CompiledChain.Locate allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { sink += h.Locate(xs[1]) }); n != 0 {
		t.Fatalf("History.Locate (cached compile) allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { _, d := chain.Final(xs[2]); sink += d }); n != 0 {
		t.Fatalf("CompiledChain.Final allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { _, b, a := chain.Moved(xs[3]); sink += b + a }); n != 0 {
		t.Fatalf("CompiledChain.Moved allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(50, func() { chain.LocateBatch(xs, out) }); n != 0 {
		t.Fatalf("CompiledChain.LocateBatch allocates %.1f/op", n)
	}
	_ = sink
}

// benchChain builds the shared j-operation benchmark history (same mix as
// bench_test.go's benchHistory at the repository root).
func benchChain(b *testing.B, ops int) *History {
	b.Helper()
	h := MustNewHistory(8)
	for j := 0; j < ops; j++ {
		if j%3 == 2 {
			if _, err := h.Remove(j % h.N()); err != nil {
				b.Fatal(err)
			}
		} else {
			if _, err := h.Add(1); err != nil {
				b.Fatal(err)
			}
		}
	}
	return h
}

func BenchmarkCompiledChain(b *testing.B) {
	h := benchChain(b, 16)
	chain := h.Compile()
	xs := make([]uint64, 4096)
	src := prng.NewSplitMix64(7)
	for i := range xs {
		xs[i] = src.Next()
	}
	out := make([]int, len(xs))

	b.Run("interpreted", func(b *testing.B) {
		b.ReportAllocs()
		sink := 0
		for i := 0; i < b.N; i++ {
			sink += h.DiskAt(xs[i&4095], h.Ops())
		}
		_ = sink
	})
	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		sink := 0
		for i := 0; i < b.N; i++ {
			sink += chain.Locate(xs[i&4095])
		}
		_ = sink
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			chain.LocateBatch(xs, out)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(xs)), "ns/block")
	})
}
