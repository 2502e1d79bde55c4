package placement

import (
	"testing"

	"scaddar/internal/stats"
)

func newJump(t *testing.T, n0 int) *Jump {
	t.Helper()
	j, err := NewJump(n0, x0For(t))
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestNewJumpValidation(t *testing.T) {
	if _, err := NewJump(0, x0For(t)); err == nil {
		t.Fatal("zero disks accepted")
	}
	j := newJump(t, 8)
	if j.Name() != "jump" || j.N() != 8 {
		t.Fatalf("name=%q n=%d", j.Name(), j.N())
	}
}

func TestJumpHashKnownProperties(t *testing.T) {
	// Single bucket: everything lands on 0.
	for key := uint64(0); key < 100; key++ {
		if got := JumpHash(key*2654435761, 1); got != 0 {
			t.Fatalf("JumpHash(_, 1) = %d", got)
		}
	}
	// Range check across bucket counts.
	for _, n := range []int{1, 2, 7, 100} {
		for key := uint64(1); key < 2000; key *= 3 {
			if got := JumpHash(key, n); got < 0 || got >= n {
				t.Fatalf("JumpHash(%d, %d) = %d out of range", key, n, got)
			}
		}
	}
}

// TestJumpMonotoneGrowth is jump hashing's defining property: growing the
// bucket count never moves a key between existing buckets — it either stays
// or jumps to a new bucket.
func TestJumpMonotoneGrowth(t *testing.T) {
	for key := uint64(1); key < 100000; key = key*5 + 1 {
		prev := JumpHash(key, 8)
		for n := 9; n <= 16; n++ {
			cur := JumpHash(key, n)
			if cur != prev && cur < n-1 {
				// moved, but not to the newest bucket added at this step
				if cur < 8 || cur < prev {
					t.Fatalf("key %d moved %d -> %d when growing to %d", key, prev, cur, n)
				}
			}
			prev = cur
		}
	}
}

func TestJumpMovementOptimalOnAdd(t *testing.T) {
	blocks := testBlocks(20, 500)
	j := newJump(t, 8)
	before := Snapshot(j, blocks)
	if err := j.AddDisks(2); err != nil {
		t.Fatal(err)
	}
	after := Snapshot(j, blocks)
	moves, err := Moves(before, after)
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(moves) / float64(len(blocks))
	if frac < 0.17 || frac > 0.23 {
		t.Fatalf("moved %.3f, want ~0.20", frac)
	}
	for i := range blocks {
		if before[i] != after[i] && after[i] < 8 {
			t.Fatalf("mover landed on old bucket %d", after[i])
		}
	}
}

func TestJumpBalanced(t *testing.T) {
	blocks := testBlocks(20, 1000)
	j := newJump(t, 10)
	cov := stats.CoVInts(LoadVector(j, blocks))
	if cov > 0.05 {
		t.Fatalf("CoV %.4f", cov)
	}
}

func TestJumpTailRemovalOnly(t *testing.T) {
	j := newJump(t, 8)
	// Tail removals succeed.
	if err := j.RemoveDisks(7); err != nil {
		t.Fatal(err)
	}
	if err := j.RemoveDisks(5, 6); err != nil {
		t.Fatal(err)
	}
	if j.N() != 5 {
		t.Fatalf("N = %d, want 5", j.N())
	}
	// Middle removals are structurally impossible.
	if err := j.RemoveDisks(0); err == nil {
		t.Fatal("middle-bucket removal accepted")
	}
	if err := j.RemoveDisks(2, 4); err == nil {
		t.Fatal("non-suffix removal accepted")
	}
	// Shrinking at the tail moves exactly the dropped buckets' blocks.
	blocks := testBlocks(10, 500)
	before := Snapshot(j, blocks)
	onTail := 0
	for _, d := range before {
		if d == 4 {
			onTail++
		}
	}
	if err := j.RemoveDisks(4); err != nil {
		t.Fatal(err)
	}
	after := Snapshot(j, blocks)
	moves, err := Moves(before, after)
	if err != nil {
		t.Fatal(err)
	}
	if moves != onTail {
		t.Fatalf("tail removal moved %d, want %d", moves, onTail)
	}
}

// TestJumpVsScaddarRemovalFlexibility documents the comparison this
// repository exists to make: SCADDAR retires an arbitrary disk; jump
// hashing cannot.
func TestJumpVsScaddarRemovalFlexibility(t *testing.T) {
	sc, err := NewScaddar(8, x0For(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.RemoveDisks(3); err != nil {
		t.Fatalf("scaddar middle removal failed: %v", err)
	}
	j := newJump(t, 8)
	if err := j.RemoveDisks(3); err == nil {
		t.Fatal("jump middle removal unexpectedly succeeded")
	}
}
