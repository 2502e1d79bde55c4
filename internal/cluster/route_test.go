package cluster

import (
	"hash/fnv"
	"math"
	"testing"
)

// TestRouteSlotGolden pins where objects live: the slot of 1,000 object IDs
// among 1, 3, 16 and 64 shards, as a digest taken before RouteSlot moved onto
// placement.JumpHash. A change here strands every routed object on a shard
// the router no longer asks.
func TestRouteSlotGolden(t *testing.T) {
	h := fnv.New64a()
	for _, k := range []int{1, 3, 16, 64} {
		for id := 0; id < 1000; id++ {
			h.Write([]byte{byte(RouteSlot(id, k))})
		}
	}
	if got := h.Sum64(); got != 0x4f5c2dcaf0283bbf {
		t.Fatalf("RouteSlot digest %#x, want 0x4f5c2dcaf0283bbf: routed objects changed shard", got)
	}
}

// TestJumpHashRange checks the bucket is always within [0, buckets).
func TestJumpHashRange(t *testing.T) {
	for buckets := 1; buckets <= 16; buckets++ {
		for id := 0; id < 2000; id++ {
			b := RouteSlot(id, buckets)
			if b < 0 || b >= buckets {
				t.Fatalf("RouteSlot(%d, %d) = %d outside [0,%d)", id, buckets, b, buckets)
			}
		}
	}
}

// TestJumpHashSingleBucket pins the trivial case.
func TestJumpHashSingleBucket(t *testing.T) {
	for id := 0; id < 100; id++ {
		if got := RouteSlot(id, 1); got != 0 {
			t.Fatalf("RouteSlot(%d, 1) = %d", id, got)
		}
	}
}

// TestJumpHashMonotoneRelocation is the property the whole scaling design
// rests on: growing K→K+1 relocates ~1/(K+1) of the keys, and every
// relocated key lands on the NEW bucket — never shuffled between the old
// ones. This mirrors SCADDAR's RO1 at the shard layer.
func TestJumpHashMonotoneRelocation(t *testing.T) {
	const n = 20000
	for k := 1; k <= 12; k++ {
		moved := 0
		for id := 0; id < n; id++ {
			oldSlot := RouteSlot(id, k)
			newSlot := RouteSlot(id, k+1)
			if oldSlot == newSlot {
				continue
			}
			moved++
			if newSlot != k {
				t.Fatalf("K=%d: object %d relocated %d→%d, not to the new bucket %d",
					k, id, oldSlot, newSlot, k)
			}
		}
		ideal := 1 / float64(k+1)
		frac := float64(moved) / n
		if math.Abs(frac-ideal) > 0.1*ideal {
			t.Errorf("K=%d→%d: moved fraction %.4f not within 10%% of ideal %.4f",
				k, k+1, frac, ideal)
		}
	}
}

// TestJumpHashTailRemoval is the drain-side property: shrinking K→K-1
// relocates exactly the keys of the removed tail bucket, and nothing else.
func TestJumpHashTailRemoval(t *testing.T) {
	const n = 20000
	for k := 2; k <= 12; k++ {
		for id := 0; id < n; id++ {
			oldSlot := RouteSlot(id, k)
			newSlot := RouteSlot(id, k-1)
			if oldSlot != k-1 && newSlot != oldSlot {
				t.Fatalf("K=%d→%d: object %d moved %d→%d though its bucket survives",
					k, k-1, id, oldSlot, newSlot)
			}
			if oldSlot == k-1 && newSlot == k-1 {
				t.Fatalf("K=%d→%d: object %d still routed to the removed tail", k, k-1, id)
			}
		}
	}
}

// TestRouteKeyWhitening checks the SplitMix64 finalizer spreads the small
// dense ID space: consecutive IDs must not clump on one bucket.
func TestRouteKeyWhitening(t *testing.T) {
	const n, buckets = 400, 4
	counts := make([]int, buckets)
	for id := 0; id < n; id++ {
		counts[RouteSlot(id, buckets)]++
	}
	for b, c := range counts {
		if c < n/buckets/2 || c > n/buckets*2 {
			t.Errorf("bucket %d holds %d of %d consecutive IDs (want near %d)", b, c, n, n/buckets)
		}
	}
}

// TestRouteKeyDistinct spot-checks the finalizer is injective-looking on a
// small range (it is a bijection on uint64; collisions here would mean a
// transcription bug).
func TestRouteKeyDistinct(t *testing.T) {
	seen := make(map[uint64]int, 10000)
	for id := 0; id < 10000; id++ {
		k := RouteKey(id)
		if prev, dup := seen[k]; dup {
			t.Fatalf("RouteKey collision: ids %d and %d both map to %#x", prev, id, k)
		}
		seen[k] = id
	}
}

// TestSessionIDRoundTrip checks the cluster session encoding.
func TestSessionIDRoundTrip(t *testing.T) {
	for _, shard := range []int{0, 1, 7, MaxShardID - 1} {
		for _, local := range []int{0, 1, 42, 99999} {
			cid := sessionID(shard, local)
			gotShard, gotLocal := splitSessionID(cid)
			if gotShard != shard || gotLocal != local {
				t.Fatalf("sessionID(%d,%d)=%d split to (%d,%d)", shard, local, cid, gotShard, gotLocal)
			}
		}
	}
}
