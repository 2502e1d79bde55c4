package placement

import (
	"runtime"
	"testing"

	"scaddar/internal/par"
	"scaddar/internal/prng"
)

// batchFixture is a SCADDAR strategy with a few operations and one complete
// redistribution behind it, and n blocks spread over 16 objects.
func batchFixture(tb testing.TB, n int) (*Scaddar, []BlockRef) {
	tb.Helper()
	s, err := NewScaddar(6, NewX0Func(func(seed uint64) prng.Source { return prng.NewSplitMix64(seed) }))
	if err != nil {
		tb.Fatal(err)
	}
	for _, op := range []func() error{
		func() error { return s.AddDisks(2) }, s.Rebaseline, func() error { return s.RemoveDisks(1, 4) }, func() error { return s.AddDisks(3) },
	} {
		if err := op(); err != nil {
			tb.Fatal(err)
		}
	}
	blocks := make([]BlockRef, n)
	for i := range blocks {
		blocks[i] = BlockRef{Seed: uint64(i%16 + 1), Index: uint64(i / 16)}
	}
	return s, blocks
}

// TestDiskBatchMatchesDisk sweeps sizes on both sides of the stack chunk (256)
// and of the fan-out threshold (par.MinParallel): every answer is Disk's, and
// the sweep itself allocates nothing at any size. (AllocsPerRun measures at
// GOMAXPROCS 1, so what it pins is the sweep; what the fan-out adds above the
// threshold — a wait group and two small objects a worker — is on
// BenchmarkDiskBatch/128k's allocs/op, which CI gates.)
func TestDiskBatchMatchesDisk(t *testing.T) {
	for _, n := range []int{0, 1, 255, 256, 257, par.MinParallel - 1, par.MinParallel, 5000} {
		s, blocks := batchFixture(t, n)
		out := make([]int, n+1)
		out[n] = -7
		s.DiskBatch(blocks, out)
		for i, b := range blocks {
			if want := s.Disk(b); out[i] != want {
				t.Fatalf("n=%d: block %d on disk %d, Disk says %d", n, i, out[i], want)
			}
		}
		if out[n] != -7 {
			t.Fatalf("n=%d: DiskBatch wrote past the blocks it was given", n)
		}
		if allocs := testing.AllocsPerRun(20, func() { s.DiskBatch(blocks, out) }); allocs != 0 {
			t.Errorf("n=%d: DiskBatch allocates %.1f times per call, want 0", n, allocs)
		}
	}
}

// BenchmarkDiskBatch is the planner's inner sweep at a size that stays on the
// caller's goroutine (0 allocs/op) and at a catalogue's size, where the
// fan-out is all that allocates: 2 × workers + 2, at two workers whatever the
// machine, so the allocs/op CI gates do not depend on who took the capture.
func BenchmarkDiskBatch(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"2k", 2000}, {"128k", 128 << 10}} {
		b.Run(size.name, func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
			s, blocks := batchFixture(b, size.n)
			out := make([]int, size.n)
			s.DiskBatch(blocks, out) // the X0 source memoizes a sequence per object
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.DiskBatch(blocks, out)
			}
		})
	}
}
