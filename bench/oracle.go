package main

import (
	"fmt"
	"hash/crc32"
	"math"

	"scaddar/internal/placement"
	"scaddar/internal/prng"
	iscaddar "scaddar/internal/scaddar"
	"scaddar/internal/workload"
)

// scaleOp is one scaling operation: add > 0 disks, or remove the listed
// logical indices (numbering at the time of the operation).
type scaleOp struct {
	add    int
	remove []int
}

// growthN0 and growthHistory are the fixed past of the shared lookup array:
// 8 disks reached through j = 12 additions and removals, so the REMAP chain
// every lookup walks is a well-used array's and not j = 0. The disk counts
// after each step are 7 8 7 8 6 7 8 9 8 7 9 8; their product is 2^35.2, and
// the six operations reorg_durable appends bring it to 2^54.1 — inside the
// paper's §4.3 budget for 64-bit generators (guaranteed unfairness < 1 %).
// The history does not depend on -seed: a seed changes the requests and the
// object seeds, not the system under test.
const growthN0 = 6

var growthHistory = []scaleOp{
	{add: 1}, {add: 1}, {remove: []int{2}}, {add: 1}, {remove: []int{0, 5}}, {add: 1},
	{add: 1}, {add: 1}, {remove: []int{3}}, {remove: []int{6}}, {add: 2}, {remove: []int{4}},
}

// durableScript is what reorg_durable does to that array: +2, −2, three times.
var durableScript = []scaleOp{
	{add: 2}, {remove: []int{1, 8}}, {add: 2}, {remove: []int{0, 5}}, {add: 2}, {remove: []int{3, 9}},
}

// sourceFactory is the generator family of every server in the benchmark;
// recovery and followers regenerate X0 chains from it.
func sourceFactory(seed uint64) prng.Source { return prng.NewSplitMix64(seed) }

// makeObjects derives the catalogue from the run seed: distinct placement
// seeds, fixed shape.
func makeObjects(seed uint64, n, blocks int, blockBytes int64) []workload.Object {
	objs := make([]workload.Object, n)
	for i := range objs {
		objs[i] = workload.Object{
			ID: i, Seed: prng.Combine(seed, uint64(i)+1), Blocks: blocks,
			BlockBytes: blockBytes, BitrateBitsPerSec: 4 << 20,
		}
	}
	return objs
}

// newStrategy replays a history into a fresh SCADDAR strategy. Servers get
// their own instance; the oracle never shares one with the system.
func newStrategy(n0 int, history []scaleOp) (*placement.Scaddar, error) {
	strat, err := placement.NewScaddar(n0, placement.NewX0Func(sourceFactory))
	if err != nil {
		return nil, err
	}
	for _, op := range history {
		if op.add > 0 {
			err = strat.AddDisks(op.add)
		} else {
			err = strat.RemoveDisks(op.remove...)
		}
		if err != nil {
			return nil, err
		}
	}
	return strat, nil
}

// oracle is the benchmark's own account of where every block lives. It is
// built from the object seeds and the operation log alone, through the
// scaddar History — never from a snapshot, a server or a gateway — so an
// answer that agrees with it agrees with the paper's access function.
//
// tables[k] is the placement after k operations of the script; preOf[k]
// translates a post-operation index of script step k into the numbering the
// array uses while that step drains (identity for additions).
type oracle struct {
	objs   []workload.Object
	tables [][][]uint8
	preOf  [][]int
	n      []int
	// epoch0 is the server's placement epoch before the script starts; a
	// reply's epoch minus this says which table it must match.
	epoch0 uint64
}

func buildOracle(objs []workload.Object, n0 int, history, script []scaleOp) (*oracle, error) {
	hist, err := iscaddar.NewHistory(n0)
	if err != nil {
		return nil, err
	}
	apply := func(op scaleOp) error {
		if op.add > 0 {
			_, err := hist.Add(op.add)
			return err
		}
		_, err := hist.Remove(op.remove...)
		return err
	}
	for _, op := range history {
		if err := apply(op); err != nil {
			return nil, err
		}
	}
	x0 := placement.NewX0Func(sourceFactory)
	table := func() [][]uint8 {
		t := make([][]uint8, len(objs))
		for i, o := range objs {
			row := make([]uint8, o.Blocks)
			for b := range row {
				row[b] = uint8(hist.Locate(x0(placement.BlockRef{Seed: o.Seed, Index: uint64(b)})))
			}
			t[i] = row
		}
		return t
	}
	or := &oracle{objs: objs, tables: [][][]uint8{table()}, n: []int{hist.N()}}
	for _, op := range script {
		nBefore := hist.N()
		if err := apply(op); err != nil {
			return nil, err
		}
		pre := make([]int, hist.N())
		if op.add > 0 {
			for i := range pre {
				pre[i] = i
			}
		} else {
			gone := make(map[int]bool, len(op.remove))
			for _, r := range op.remove {
				gone[r] = true
			}
			k := 0
			for old := 0; old < nBefore; old++ {
				if !gone[old] {
					pre[k] = old
					k++
				}
			}
		}
		or.preOf = append(or.preOf, pre)
		or.tables = append(or.tables, table())
		or.n = append(or.n, hist.N())
	}
	return or, nil
}

// want is the placement with no operation in flight after k script steps.
func (or *oracle) want(k, object, block int) int { return int(or.tables[k][object][block]) }

// check validates one answer given the epoch of the reply that carried it.
// Epochs advance once when a scaling operation starts and once when it
// finishes, so an even distance from epoch0 is a settled array and an odd
// one is a drain, during which a block is either still at its old home or
// already at its new one.
func (or *oracle) check(epoch uint64, object, block, disk int) bool {
	rel := int(epoch - or.epoch0)
	if epoch < or.epoch0 || rel/2 >= len(or.tables) || (rel%2 == 1 && rel/2 >= len(or.preOf)) {
		return false
	}
	k := rel / 2
	if rel%2 == 0 {
		return disk == or.want(k, object, block)
	}
	return disk == or.want(k, object, block) || disk == or.preOf[k][or.want(k+1, object, block)]
}

// optimalMoves is RO1's minimum for script step k: blocks whose home (in the
// draining array's numbering) differs before and after.
func (or *oracle) optimalMoves(k int) int {
	moves := 0
	for o := range or.objs {
		before, after := or.tables[k][o], or.tables[k+1][o]
		for b := range before {
			if int(before[b]) != or.preOf[k][after[b]] {
				moves++
			}
		}
	}
	return moves
}

// benchContent is the benchmark's own payload function: servers ingest
// these bytes (it is handed to AttachPayloads) and clients check what comes
// back against CRCs of them computed at set-up, so the check does not lean
// on the data plane's own content code.
func benchContent(seed, index uint64, blockBytes int64) []byte {
	dst := make([]byte, blockBytes)
	fillContent(dst, seed, index)
	return dst
}

// fillContent writes block (seed, index)'s payload into dst: an xorshift
// stream keyed by the pair (a trailing partial word stays zero).
func fillContent(dst []byte, seed, index uint64) {
	x := prng.Combine(seed, index) | 1
	for i := 0; i+8 <= len(dst); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		dst[i], dst[i+1], dst[i+2], dst[i+3] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24)
		dst[i+4], dst[i+5], dst[i+6], dst[i+7] = byte(x>>32), byte(x>>40), byte(x>>48), byte(x>>56)
	}
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// contentCRCs precomputes the CRC-32C of every block's oracle payload. One
// buffer is reused: 256 MiB of garbage at set-up would make the run's peak
// RSS depend on when the collector happened to run.
func contentCRCs(objs []workload.Object) [][]uint32 {
	out := make([][]uint32, len(objs))
	var buf []byte
	for i, o := range objs {
		if int64(len(buf)) != o.BlockBytes {
			buf = make([]byte, o.BlockBytes)
		}
		row := make([]uint32, o.Blocks)
		for b := range row {
			fillContent(buf, o.Seed, uint64(b))
			row[b] = crc32.Checksum(buf, castagnoli)
		}
		out[i] = row
	}
	return out
}

// zipf draws object ranks with P(rank r) ∝ 1/r^theta by inverse CDF.
type zipf struct {
	cdf []float64
	rng *prng.SplitMix64
}

func newZipf(seed uint64, n int, theta float64) *zipf {
	z := &zipf{cdf: make([]float64, n), rng: prng.NewSplitMix64(seed)}
	sum := 0.0
	for r := 1; r <= n; r++ {
		sum += 1 / math.Pow(float64(r), theta)
		z.cdf[r-1] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z *zipf) draw() int {
	u := float64(z.rng.Next()>>11) / (1 << 53)
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// uniform returns a value in [0, n).
func (z *zipf) uniform(n int) int { return int(z.rng.Next() % uint64(n)) }

// addr is one pre-generated block address.
type addr struct{ object, block int32 }

// genAddrs builds a request sequence before the clock starts: Zipf
// (θ = 0.729) over objects, uniform over an object's blocks.
func genAddrs(seed uint64, objs []workload.Object, n int) []addr {
	z := newZipf(seed, len(objs), 0.729)
	out := make([]addr, n)
	for i := range out {
		o := z.draw()
		out[i] = addr{int32(o), int32(z.uniform(objs[o].Blocks))}
	}
	return out
}

func (op scaleOp) String() string {
	if op.add > 0 {
		return fmt.Sprintf("+%d", op.add)
	}
	return fmt.Sprintf("-%v", op.remove)
}
