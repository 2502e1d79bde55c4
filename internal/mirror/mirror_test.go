package mirror

import (
	"testing"
	"testing/quick"

	"scaddar/internal/placement"
	"scaddar/internal/prng"
)

func newScaddar(t *testing.T, n0 int) *placement.Scaddar {
	t.Helper()
	x0 := placement.NewX0Func(func(seed uint64) prng.Source { return prng.NewSplitMix64(seed) })
	s, err := placement.NewScaddar(n0, x0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func blocks(nobj, per int) []placement.BlockRef {
	out := make([]placement.BlockRef, 0, nobj*per)
	for o := 0; o < nobj; o++ {
		for i := 0; i < per; i++ {
			out = append(out, placement.BlockRef{Seed: uint64(o + 1), Index: uint64(i)})
		}
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Error("nil strategy accepted")
	}
	m, err := New(newScaddar(t, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 4 {
		t.Fatalf("N = %d", m.N())
	}
}

func TestHalfOffset(t *testing.T) {
	cases := map[int]int{2: 1, 3: 2, 4: 2, 5: 3, 6: 3, 10: 5}
	for n, want := range cases {
		if got := HalfOffset(n); got != want {
			t.Errorf("HalfOffset(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestCopiesNeverColocate(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 7, 10, 16} {
		m, err := New(newScaddar(t, n), HalfOffset)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range blocks(5, 100) {
			p, mir, err := m.Locate(b)
			if err != nil {
				t.Fatal(err)
			}
			if p == mir {
				t.Fatalf("n=%d: copies co-located on disk %d", n, p)
			}
			if p < 0 || p >= n || mir < 0 || mir >= n {
				t.Fatalf("n=%d: copy out of range %d/%d", n, p, mir)
			}
		}
	}
}

func TestSingleDiskMirroringRejected(t *testing.T) {
	m, err := New(newScaddar(t, 1), HalfOffset)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Mirror(placement.BlockRef{Seed: 1}); err == nil {
		t.Fatal("mirroring on one disk accepted")
	}
}

func TestZeroOffsetRejected(t *testing.T) {
	m, err := New(newScaddar(t, 4), func(int) int { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Mirror(placement.BlockRef{Seed: 1}); err == nil {
		t.Fatal("zero offset accepted")
	}
	// Offset equal to N reduces to zero and must also be rejected.
	m2, _ := New(newScaddar(t, 4), func(n int) int { return n })
	if _, err := m2.Mirror(placement.BlockRef{Seed: 1}); err == nil {
		t.Fatal("offset == N accepted")
	}
}

func TestNegativeOffsetNormalized(t *testing.T) {
	m, err := New(newScaddar(t, 5), func(int) int { return -2 })
	if err != nil {
		t.Fatal(err)
	}
	b := placement.BlockRef{Seed: 3, Index: 7}
	p, mir, err := m.Locate(b)
	if err != nil {
		t.Fatal(err)
	}
	if mir != (p+3)%5 {
		t.Fatalf("mirror = %d, want %d", mir, (p+3)%5)
	}
}

func TestSingleFailureAlwaysSurvivable(t *testing.T) {
	m, err := New(newScaddar(t, 6), HalfOffset)
	if err != nil {
		t.Fatal(err)
	}
	bs := blocks(10, 200)
	for failedDisk := 0; failedDisk < 6; failedDisk++ {
		rep, err := m.Survive(bs, map[int]bool{failedDisk: true})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Lost != 0 {
			t.Fatalf("disk %d failure lost %d blocks", failedDisk, rep.Lost)
		}
		if rep.Readable != rep.Blocks {
			t.Fatalf("disk %d failure: %d/%d readable", failedDisk, rep.Readable, rep.Blocks)
		}
		// Roughly 1/6 of blocks should be in degraded-read mode.
		frac := float64(rep.DegradedReads) / float64(rep.Blocks)
		if frac < 0.1 || frac > 0.25 {
			t.Fatalf("disk %d failure: degraded fraction %.3f, want ~1/6", failedDisk, frac)
		}
	}
}

func TestOffsetPairFailureLosesBlocks(t *testing.T) {
	m, err := New(newScaddar(t, 6), HalfOffset)
	if err != nil {
		t.Fatal(err)
	}
	bs := blocks(10, 200)
	// Disks 0 and 3 are offset partners (offset = 3): blocks with primary
	// on 0 mirror to 3 and vice versa, so the pair failure loses blocks.
	rep, err := m.Survive(bs, map[int]bool{0: true, 3: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lost == 0 {
		t.Fatal("offset-pair double failure lost nothing; mirroring layout is wrong")
	}
	// Non-partner double failure (0 and 1) loses nothing.
	rep, err = m.Survive(bs, map[int]bool{0: true, 1: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lost != 0 {
		t.Fatalf("non-partner double failure lost %d blocks", rep.Lost)
	}
}

func TestAvailable(t *testing.T) {
	m, err := New(newScaddar(t, 4), HalfOffset)
	if err != nil {
		t.Fatal(err)
	}
	b := placement.BlockRef{Seed: 2, Index: 9}
	p, mir, _ := m.Locate(b)
	ok, err := m.Available(b, map[int]bool{p: true})
	if err != nil || !ok {
		t.Fatalf("available with primary failed = %v, %v", ok, err)
	}
	ok, err = m.Available(b, map[int]bool{p: true, mir: true})
	if err != nil || ok {
		t.Fatalf("available with both failed = %v, %v", ok, err)
	}
}

func TestReadFrom(t *testing.T) {
	m, err := New(newScaddar(t, 4), HalfOffset)
	if err != nil {
		t.Fatal(err)
	}
	b := placement.BlockRef{Seed: 5, Index: 1}
	p, mir, _ := m.Locate(b)
	depths := make([]int, 4)
	depths[p] = 10
	got, err := m.ReadFrom(b, depths)
	if err != nil || got != mir {
		t.Fatalf("busy primary: read from %d, want mirror %d", got, mir)
	}
	depths[p] = 0
	got, err = m.ReadFrom(b, depths)
	if err != nil || got != p {
		t.Fatalf("tie: read from %d, want primary %d", got, p)
	}
	if _, err := m.ReadFrom(b, []int{1}); err == nil {
		t.Fatal("short queue vector accepted")
	}
}

func TestSurvivalAfterScaling(t *testing.T) {
	s := newScaddar(t, 4)
	m, err := New(s, HalfOffset)
	if err != nil {
		t.Fatal(err)
	}
	bs := blocks(8, 150)
	if err := s.AddDisks(2); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveDisks(1); err != nil {
		t.Fatal(err)
	}
	// Mirrors recompute against the new N automatically.
	for d := 0; d < m.N(); d++ {
		rep, err := m.Survive(bs, map[int]bool{d: true})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Lost != 0 {
			t.Fatalf("after scaling, disk %d failure lost %d blocks", d, rep.Lost)
		}
	}
}

func TestStorageOverhead(t *testing.T) {
	m, _ := New(newScaddar(t, 4), nil)
	if m.StorageOverhead() != 2 {
		t.Fatal("mirroring overhead must be 2x")
	}
}

// TestQuickMirrorDistinct property-tests that for any valid offset function
// the two copies are always distinct.
func TestQuickMirrorDistinct(t *testing.T) {
	s := newScaddar(t, 9)
	f := func(offRaw uint8, seed uint64, idx uint16) bool {
		off := int(offRaw%8) + 1 // 1..8, never 0 mod 9
		m, err := New(s, func(int) int { return off })
		if err != nil {
			return false
		}
		p, mir, err := m.Locate(placement.BlockRef{Seed: seed, Index: uint64(idx)})
		return err == nil && p != mir
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
