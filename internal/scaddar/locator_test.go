package scaddar

import (
	"testing"

	"scaddar/internal/prng"
)

func splitMixFactory(seed uint64) prng.Source { return prng.NewSplitMix64(seed) }

func TestNewLocatorValidation(t *testing.T) {
	h := MustNewHistory(4)
	if _, err := NewLocator(nil, splitMixFactory); err == nil {
		t.Error("nil history accepted")
	}
	if _, err := NewLocator(h, nil); err == nil {
		t.Error("nil factory accepted")
	}
}

func TestLocatorMatchesHistory(t *testing.T) {
	h := MustNewHistory(4)
	h.Add(2)
	h.Remove(1)
	l, err := NewLocator(h, splitMixFactory)
	if err != nil {
		t.Fatal(err)
	}
	seq := prng.NewSplitMix64(42)
	for i := uint64(0); i < 500; i++ {
		want := h.Locate(seq.At(i))
		got, err := l.Disk(42, i)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("block %d: locator %d, history %d", i, got, want)
		}
	}
}

func TestLocatorDiskAt(t *testing.T) {
	h := MustNewHistory(4)
	h.Add(2)
	l, err := NewLocator(h, splitMixFactory)
	if err != nil {
		t.Fatal(err)
	}
	x0, err := l.X0(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	d0, err := l.DiskAt(7, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d0 != int(x0%4) {
		t.Fatalf("DiskAt(0) = %d, want %d", d0, x0%4)
	}
}

func TestLocatorBits(t *testing.T) {
	h := MustNewHistory(4)
	l, err := NewLocator(h, splitMixFactory)
	if err != nil {
		t.Fatal(err)
	}
	if l.Bits() != 0 {
		t.Fatalf("fresh locator bits = %d, want 0", l.Bits())
	}
	if _, err := l.X0(1, 0); err != nil {
		t.Fatal(err)
	}
	if l.Bits() != 64 {
		t.Fatalf("bits = %d, want 64", l.Bits())
	}
}

func TestLocatorRejectsWidthChange(t *testing.T) {
	h := MustNewHistory(4)
	calls := 0
	factory := func(seed uint64) prng.Source {
		calls++
		if calls > 1 {
			return prng.NewPCG32(seed) // 32-bit on the second call
		}
		return prng.NewSplitMix64(seed)
	}
	l, err := NewLocator(h, factory)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.X0(1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := l.X0(2, 0); err == nil {
		t.Fatal("width change accepted")
	}
}

func TestLocatorWithSequentialSource(t *testing.T) {
	h := MustNewHistory(4)
	h.Add(1)
	l, err := NewLocator(h, func(seed uint64) prng.Source { return prng.NewPCG32(seed) })
	if err != nil {
		t.Fatal(err)
	}
	// Out-of-order access must agree with in-order generation.
	d5, err := l.Disk(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	ref := prng.NewPCG32(3)
	var want int
	for i := 0; i <= 5; i++ {
		x := ref.Next()
		if i == 5 {
			want = h.Locate(x)
		}
	}
	if d5 != want {
		t.Fatalf("Disk(3,5) = %d, want %d", d5, want)
	}
}
