package prng

import (
	"testing"
	"testing/quick"
)

func TestMaxValue(t *testing.T) {
	cases := []struct {
		bits uint
		want uint64
	}{
		{1, 1},
		{8, 255},
		{32, 1<<32 - 1},
		{63, 1<<63 - 1},
		{64, ^uint64(0)},
	}
	for _, c := range cases {
		if got := MaxValue(c.bits); got != c.want {
			t.Errorf("MaxValue(%d) = %d, want %d", c.bits, got, c.want)
		}
	}
}

func TestMaxValuePanics(t *testing.T) {
	for _, bits := range []uint{0, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MaxValue(%d) did not panic", bits)
				}
			}()
			MaxValue(bits)
		}()
	}
}

// allSources builds one instance of every generator family with a fixed seed.
func allSources(seed uint64) map[string]Source {
	return map[string]Source{
		"splitmix64":     NewSplitMix64(seed),
		"xorshift64star": NewXorshift64Star(seed),
		"pcg32":          NewPCG32(seed),
		"lcg64":          NewLCG64(seed),
	}
}

func TestDeterminism(t *testing.T) {
	for name, src := range allSources(12345) {
		first := make([]uint64, 100)
		for i := range first {
			first[i] = src.Next()
		}
		src.Reset()
		for i := range first {
			if got := src.Next(); got != first[i] {
				t.Fatalf("%s: value %d after Reset = %d, want %d", name, i, got, first[i])
			}
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	for name := range allSources(0) {
		a := allSources(1)[name]
		b := allSources(2)[name]
		same := 0
		for i := 0; i < 100; i++ {
			if a.Next() == b.Next() {
				same++
			}
		}
		if same > 2 {
			t.Errorf("%s: seeds 1 and 2 agree on %d/100 outputs", name, same)
		}
	}
}

func TestSeedAccessor(t *testing.T) {
	for name, src := range allSources(77) {
		if src.Seed() != 77 {
			t.Errorf("%s: Seed() = %d, want 77", name, src.Seed())
		}
	}
}

func TestSplitMix64IndexedMatchesSequential(t *testing.T) {
	s := NewSplitMix64(42)
	seq := make([]uint64, 50)
	for i := range seq {
		seq[i] = s.Next()
	}
	for i, want := range seq {
		if got := s.At(uint64(i)); got != want {
			t.Fatalf("At(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestSplitMix64AtDoesNotDisturbSequence(t *testing.T) {
	s := NewSplitMix64(7)
	a := s.Next()
	_ = s.At(100)
	b := s.Next()
	s2 := NewSplitMix64(7)
	if s2.Next() != a || s2.Next() != b {
		t.Fatal("At() disturbed the sequential position")
	}
}

func TestPCG32Is32Bit(t *testing.T) {
	p := NewPCG32(99)
	for i := 0; i < 1000; i++ {
		if v := p.Next(); v > MaxValue(32) {
			t.Fatalf("PCG32 output %d exceeds 32 bits", v)
		}
	}
}

func TestXorshiftZeroSeed(t *testing.T) {
	x := NewXorshift64Star(0)
	if v := x.Next(); v == 0 {
		t.Fatal("zero seed produced a stuck all-zero state")
	}
}

func TestTruncate(t *testing.T) {
	src := NewSplitMix64(5)
	tr := Truncate(NewSplitMix64(5), 16)
	if tr.Bits() != 16 {
		t.Fatalf("Bits() = %d, want 16", tr.Bits())
	}
	for i := 0; i < 100; i++ {
		full := src.Next()
		got := tr.Next()
		if want := full >> 48; got != want {
			t.Fatalf("value %d: got %d, want high 16 bits %d", i, got, want)
		}
		if got > MaxValue(16) {
			t.Fatalf("truncated value %d out of range", got)
		}
	}
}

func TestTruncateIdentity(t *testing.T) {
	src := NewSplitMix64(5)
	if Truncate(src, 64) != Source(src) {
		t.Fatal("Truncate to native width should return the source unchanged")
	}
}

func TestTruncatePreservesIndexed(t *testing.T) {
	tr := Truncate(NewSplitMix64(5), 32)
	idx, ok := tr.(Indexed)
	if !ok {
		t.Fatal("truncated SplitMix64 lost indexed access")
	}
	want := NewSplitMix64(5).At(9) >> 32
	if got := idx.At(9); got != want {
		t.Fatalf("At(9) = %d, want %d", got, want)
	}
}

func TestTruncatePanics(t *testing.T) {
	for _, bits := range []uint{0, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Truncate(src, %d) did not panic", bits)
				}
			}()
			Truncate(NewSplitMix64(1), bits)
		}()
	}
}

func TestCachedMatchesSequential(t *testing.T) {
	direct := NewXorshift64Star(3)
	want := make([]uint64, 30)
	for i := range want {
		want[i] = direct.Next()
	}
	c := NewCached(NewXorshift64Star(3))
	// Access out of order.
	for _, i := range []uint64{29, 0, 15, 7, 29} {
		if got := c.At(i); got != want[i] {
			t.Fatalf("At(%d) = %d, want %d", i, got, want[i])
		}
	}
}

func TestCachedResetReplays(t *testing.T) {
	c := NewCached(NewPCG32(4))
	a := c.At(5)
	c.Reset()
	if got := c.At(5); got != a {
		t.Fatalf("after Reset At(5) = %d, want %d", got, a)
	}
}

func TestCachedNext(t *testing.T) {
	c := NewCached(NewPCG32(4))
	v0 := c.Next()
	if got := c.At(0); got != v0 {
		t.Fatalf("At(0) = %d, want %d (value returned by Next)", got, v0)
	}
}

func TestEnsureIndexed(t *testing.T) {
	sm := NewSplitMix64(1)
	if EnsureIndexed(sm) != Indexed(sm) {
		t.Fatal("EnsureIndexed wrapped a natively indexed source")
	}
	if _, ok := EnsureIndexed(NewPCG32(1)).(*Cached); !ok {
		t.Fatal("EnsureIndexed did not wrap a sequential source")
	}
}

func TestHash64Injective(t *testing.T) {
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 10000; i++ {
		h := Hash64(i)
		if prev, dup := seen[h]; dup {
			t.Fatalf("Hash64 collision: %d and %d -> %d", prev, i, h)
		}
		seen[h] = i
	}
}

func TestCombineOrderMatters(t *testing.T) {
	if Combine(1, 2) == Combine(2, 1) {
		t.Fatal("Combine should not be symmetric")
	}
}

// TestUniformityModN checks the property SCADDAR relies on: X mod N is close
// to uniform for the quality generators. A crude tolerance suffices here;
// rigorous chi-square testing lives in the stats package tests.
func TestUniformityModN(t *testing.T) {
	const (
		n       = 7
		samples = 70000
	)
	for name, src := range allSources(2024) {
		if name == "lcg64" {
			continue // kept as a deliberately weak comparator
		}
		counts := make([]int, n)
		for i := 0; i < samples; i++ {
			counts[src.Next()%n]++
		}
		want := samples / n
		for d, c := range counts {
			if c < want*9/10 || c > want*11/10 {
				t.Errorf("%s: disk %d count %d deviates >10%% from %d", name, d, c, want)
			}
		}
	}
}

// TestQuickTruncateRange property-tests that truncation always respects the
// requested width.
func TestQuickTruncateRange(t *testing.T) {
	f := func(seed uint64, bitsRaw uint8) bool {
		bits := uint(bitsRaw)%64 + 1
		tr := Truncate(NewSplitMix64(seed), bits)
		for i := 0; i < 20; i++ {
			if tr.Next() > MaxValue(bits) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
