package cluster

import "scaddar/internal/placement"

// Key routing: object ID → shard slot, via jump consistent hashing over a
// mixed 64-bit key. This is the cluster-level analogue of SCADDAR's access
// function — arithmetic only, no directory, minimal movement on growth.

// RouteKey maps an object ID to the 64-bit key jump hashing consumes. The
// SplitMix64 finalizer whitens the small dense ID space so the jump-hash
// LCG sees uniformly distributed keys; without it, consecutive IDs would
// correlate through the multiplier and skew small clusters.
func RouteKey(object int) uint64 {
	z := uint64(object) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RouteSlot returns the routing slot of an object among `buckets` shards
// (buckets must be positive). Growing buckets by one relocates each key with
// probability 1/(buckets+1), and every relocated key moves to the new bucket
// — the property of jump hashing the shard scaling operations and their
// tests rely on.
func RouteSlot(object, buckets int) int {
	return placement.JumpHash(RouteKey(object), buckets)
}
