package scaddar

import "fmt"

// DiskID is the stable physical identity of a disk. Logical indices (the
// 0..N_j-1 numbers the remap arithmetic produces) change when disks are
// removed; DiskIDs never do. This is the paper's final mapping step: after
// removing Disk 4 from {0..5}, a block that remaps to logical index 4 lives
// on "the 4-th disk among all the disks", i.e. physical Disk 5.
type DiskID int

// Array couples a History with the ordered roster of physical disks, so
// callers can work in terms of stable disk identities while the remap
// arithmetic works on logical indices.
type Array struct {
	hist  *History
	disks []DiskID // logical index -> physical ID
	next  DiskID   // next physical ID to assign
}

// NewArray creates an array of n0 disks with physical IDs 0..n0-1.
func NewArray(n0 int) (*Array, error) {
	h, err := NewHistory(n0)
	if err != nil {
		return nil, err
	}
	a := &Array{hist: h, disks: make([]DiskID, n0), next: DiskID(n0)}
	for i := range a.disks {
		a.disks[i] = DiskID(i)
	}
	return a, nil
}

// MustNewArray is NewArray for statically valid arguments; it panics on
// error.
//
//unreached:testsupport the paper's worked removal example is written with it
func MustNewArray(n0 int) *Array {
	a, err := NewArray(n0)
	if err != nil {
		panic(err)
	}
	return a
}

// History exposes the underlying operation log (shared, not a copy).
func (a *Array) History() *History { return a.hist }

// N returns the current number of disks.
func (a *Array) N() int { return a.hist.N() }

// Disks returns the physical IDs in logical order (a copy).
func (a *Array) Disks() []DiskID {
	return append([]DiskID(nil), a.disks...)
}

// Physical translates a logical disk index to its physical ID.
func (a *Array) Physical(logical int) (DiskID, error) {
	if logical < 0 || logical >= len(a.disks) {
		return 0, fmt.Errorf("scaddar: logical disk %d outside [0,%d)", logical, len(a.disks))
	}
	return a.disks[logical], nil
}

// Logical translates a physical disk ID to its current logical index.
func (a *Array) Logical(id DiskID) (int, error) {
	for i, d := range a.disks {
		if d == id {
			return i, nil
		}
	}
	return 0, fmt.Errorf("scaddar: disk %d is not in the array", id)
}

// Add appends a group of count new disks and returns their physical IDs.
func (a *Array) Add(count int) ([]DiskID, error) {
	if _, err := a.hist.Add(count); err != nil {
		return nil, err
	}
	added := make([]DiskID, count)
	for i := range added {
		added[i] = a.next
		a.next++
		a.disks = append(a.disks, added[i])
	}
	return added, nil
}

// Remove removes the disks with the given physical IDs.
func (a *Array) Remove(ids ...DiskID) error {
	indices := make([]int, len(ids))
	for i, id := range ids {
		logical, err := a.Logical(id)
		if err != nil {
			return err
		}
		indices[i] = logical
	}
	op, err := a.hist.Remove(indices...)
	if err != nil {
		return err
	}
	// Compact the roster exactly as new() compacts logical indices.
	survivors := a.disks[:0]
	ri := 0
	for i, d := range a.disks {
		if ri < len(op.Removed) && op.Removed[ri] == i {
			ri++
			continue
		}
		survivors = append(survivors, d)
	}
	a.disks = survivors
	return nil
}

// Locate returns the physical disk holding the block with original random
// value x0.
func (a *Array) Locate(x0 uint64) DiskID {
	return a.disks[a.hist.Locate(x0)]
}
