package placement

import (
	"fmt"
)

// Jump implements jump consistent hashing (Lamping & Veach, 2014) as a
// second modern comparator. Like SCADDAR it computes a block's disk with a
// short chain of integer arithmetic and no per-block state, and it moves
// the optimal fraction of blocks when the array grows. The instructive
// difference is its interface restriction: jump hashing supports ONLY
// growing and shrinking at the tail — bucket i can never be removed unless
// it is the last one. SCADDAR's removal REMAP (Eq. 3) handles arbitrary
// disk-group removals, which is exactly what disk retirement needs; with
// jump hashing, retiring a middle disk forces an out-of-band relocation
// scheme. RemoveDisks therefore accepts only a suffix of the logical
// indices.
type Jump struct {
	n  int
	x0 X0Func
}

// NewJump creates a jump-consistent-hashing strategy.
func NewJump(n0 int, x0 X0Func) (*Jump, error) {
	if n0 < 1 {
		return nil, fmt.Errorf("placement: jump hashing needs at least 1 disk, got %d", n0)
	}
	return &Jump{n: n0, x0: x0}, nil
}

// Name returns "jump".
func (s *Jump) Name() string { return "jump" }

// N returns the current disk count.
func (s *Jump) N() int { return s.n }

// Disk computes the jump-hash bucket of the block's key.
func (s *Jump) Disk(b BlockRef) int {
	return JumpHash(s.x0(b), s.n)
}

// JumpHash is the Lamping-Veach loop: the key doubles as the LCG state, and
// the bucket "jumps" forward with geometrically increasing strides. It
// returns a bucket in [0, buckets); buckets must be positive. The cluster
// router places objects on shards with it (cluster.RouteSlot).
func JumpHash(key uint64, buckets int) int {
	var b, j int64 = -1, 0
	for j < int64(buckets) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// AddDisks grows the array; an expected count/N_j fraction of blocks jumps
// to the new buckets.
func (s *Jump) AddDisks(count int) error {
	if count < 1 {
		return fmt.Errorf("placement: add of %d disks", count)
	}
	s.n += count
	return nil
}

// RemoveDisks shrinks the array. Jump hashing can only drop the
// highest-numbered buckets, so the indices must be exactly the current
// tail; anything else is rejected — the structural limitation SCADDAR's
// removal REMAP avoids.
func (s *Jump) RemoveDisks(indices ...int) error {
	if err := checkRemoval(s.n, indices); err != nil {
		return err
	}
	want := make(map[int]bool, len(indices))
	for _, i := range indices {
		want[i] = true
	}
	for i := s.n - len(indices); i < s.n; i++ {
		if !want[i] {
			return fmt.Errorf("placement: jump hashing can only remove the tail buckets %d..%d", s.n-len(indices), s.n-1)
		}
	}
	s.n -= len(indices)
	return nil
}

// compile-time interface checks for every strategy in the package.
var (
	_ Strategy = (*Scaddar)(nil)
	_ Strategy = (*Naive)(nil)
	_ Strategy = (*Reshuffle)(nil)
	_ Strategy = (*RoundRobin)(nil)
	_ Strategy = (*Directory)(nil)
	_ Strategy = (*Consistent)(nil)
	_ Strategy = (*Jump)(nil)
)
