package disk

import (
	"math/bits"
	"slices"
)

// pageShift sizes an inventory page: 256 consecutive block IDs, a bit each.
const pageShift = 8

// page is the presence bitmap of one aligned run of 1<<pageShift block IDs.
type page [1 << (pageShift - 6)]uint64

// inventory is the set of blocks a disk holds: bitmap pages keyed by
// ID>>pageShift, present only where a block is. A BlockID stays opaque — a
// catalogue of consecutive indices costs a bit or two per block, and a stray
// 64-bit ID one page, never an array sized by the largest ID seen. Pages live
// in the map's own slots, so a drain that empties and refills them allocates
// nothing: a deleted key's slot stays with the map until the map is dropped.
type inventory struct {
	pages map[BlockID]page
	n     int
}

func newInventory() inventory { return inventory{pages: make(map[BlockID]page)} }

// at returns the block's page key, word index and bit.
func at(b BlockID) (BlockID, int, uint64) {
	return b >> pageShift, int(b >> 6 % BlockID(len(page{}))), 1 << (b & 63)
}

func (inv *inventory) has(b BlockID) bool {
	k, w, bit := at(b)
	return inv.pages[k][w]&bit != 0
}

// add inserts the block and reports whether it was absent.
func (inv *inventory) add(b BlockID) bool {
	k, w, bit := at(b)
	p := inv.pages[k]
	if p[w]&bit != 0 {
		return false
	}
	p[w] |= bit
	inv.pages[k] = p
	inv.n++
	return true
}

// remove deletes the block and reports whether it was present.
func (inv *inventory) remove(b BlockID) bool {
	k, w, bit := at(b)
	p := inv.pages[k]
	if p[w]&bit == 0 {
		return false
	}
	p[w] &^= bit
	if p == (page{}) {
		delete(inv.pages, k)
	} else {
		inv.pages[k] = p
	}
	inv.n--
	return true
}

// ids lists the blocks in ascending order.
func (inv *inventory) ids() []BlockID {
	keys := make([]BlockID, 0, len(inv.pages))
	for k := range inv.pages {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	out := make([]BlockID, 0, inv.n)
	for _, k := range keys {
		for i, w := range inv.pages[k] {
			for ; w != 0; w &= w - 1 {
				out = append(out, k<<pageShift|BlockID(i<<6|bits.TrailingZeros64(w)))
			}
		}
	}
	return out
}
