package cache

import (
	"testing"
	"testing/quick"

	"scaddar/internal/disk"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(-1); err == nil {
		t.Error("negative capacity accepted")
	}
	c, err := New(0)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(1)
	if c.Len() != 0 || c.Get(1) {
		t.Error("zero-capacity cache stored a block")
	}
}

func TestBasicHitMiss(t *testing.T) {
	c, _ := New(2)
	if c.Get(1) {
		t.Fatal("hit on empty cache")
	}
	c.Put(1)
	if !c.Get(1) {
		t.Fatal("miss on cached block")
	}
}

func TestEvictionOrder(t *testing.T) {
	c, _ := New(3)
	c.Put(1)
	c.Put(2)
	c.Put(3)
	// Touch 1 so 2 becomes the LRU victim.
	if !c.Get(1) {
		t.Fatal("1 evicted early")
	}
	c.Put(4) // evicts 2
	if c.Contains(2) {
		t.Fatal("2 not evicted")
	}
	for _, b := range []disk.BlockID{1, 3, 4} {
		if !c.Contains(b) {
			t.Fatalf("%d evicted wrongly", b)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestPutRefreshesExisting(t *testing.T) {
	c, _ := New(2)
	c.Put(1)
	c.Put(2)
	c.Put(1) // refresh, no eviction
	c.Put(3) // evicts 2
	if !c.Contains(1) || c.Contains(2) || !c.Contains(3) {
		t.Fatal("refresh on Put not honored")
	}
}

func TestRemoveAndClear(t *testing.T) {
	c, _ := New(4)
	c.Put(1)
	c.Put(2)
	c.Remove(1)
	c.Remove(99) // absent: no-op
	if c.Contains(1) || !c.Contains(2) || c.Len() != 1 {
		t.Fatal("remove broken")
	}
	c.Get(2)
	c.Clear()
	if c.Len() != 0 || c.Contains(2) {
		t.Fatal("clear broken")
	}
}

func TestSequentialFollowerHits(t *testing.T) {
	// The interval-caching effect: a follower within the cache window hits
	// every block the leader pulled; beyond the window it misses. The
	// capacity must comfortably exceed twice the gap: the blocks between
	// leader and follower age un-refreshed while blocks behind the
	// follower keep getting refreshed, so at capacity ≈ 2·gap LRU evicts
	// exactly the block the follower needs next.
	c, _ := New(16)
	const gap = 4
	for pos := 0; pos < 100; pos++ {
		// Leader reads pos (miss, from disk) and caches it.
		if c.Get(disk.BlockID(pos)) {
			t.Fatalf("leader hit at %d", pos)
		}
		c.Put(disk.BlockID(pos))
		// Follower reads pos-gap: always a hit once started.
		if pos >= gap {
			if !c.Get(disk.BlockID(pos - gap)) {
				t.Fatalf("follower missed at %d", pos-gap)
			}
		}
	}
	// A distant follower (gap 50 > capacity) misses everything.
	far, _ := New(16)
	for pos := 0; pos < 100; pos++ {
		far.Get(disk.BlockID(pos))
		far.Put(disk.BlockID(pos))
		if pos >= 50 && far.Get(disk.BlockID(pos-50)) {
			t.Fatalf("distant follower hit at %d", pos-50)
		}
	}
}

// TestQuickNeverExceedsCapacity property-tests the size bound.
func TestQuickNeverExceedsCapacity(t *testing.T) {
	f := func(capRaw uint8, ops []uint16) bool {
		capacity := int(capRaw % 16)
		c, err := New(capacity)
		if err != nil {
			return false
		}
		for _, op := range ops {
			b := disk.BlockID(op % 64)
			if op%3 == 0 {
				c.Get(b)
			} else if op%3 == 1 {
				c.Put(b)
			} else {
				c.Remove(b)
			}
			if c.Len() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
