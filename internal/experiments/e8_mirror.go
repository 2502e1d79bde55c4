package experiments

import (
	"fmt"

	"scaddar/internal/mirror"
	"scaddar/internal/parity"
	"scaddar/internal/placement"
)

// E8Config parameterizes the fault-tolerance experiment.
//
//unreached:testsupport cmd/benchtables runs the paper's scale; the tests shrink it
type E8Config struct {
	// N0 is the initial disk count.
	N0 int
	// Ops is the number of single-disk additions applied before the
	// failure drills (mirror offsets recompute as N changes).
	Ops int
	// Objects and BlocksPer size the block universe.
	Objects, BlocksPer int
	// Bits is the generator width.
	Bits uint
	// ParityGroup is the group size g for the hybrid parity comparison.
	ParityGroup int
}

// DefaultE8 drills failures on a 6-disk array scaled to 8, comparing
// mirroring against hybrid parity with groups of 4.
func DefaultE8() E8Config {
	return E8Config{N0: 6, Ops: 2, Objects: 20, BlocksPer: 500, Bits: 64, ParityGroup: 4}
}

// E8Row is one failure drill under one scheme.
type E8Row struct {
	// Scheme is "mirror" or "parity".
	Scheme string
	// Failed describes the failed disk set.
	Failed string
	// Blocks, Readable, Degraded, Lost summarize availability. Degraded
	// counts reads served from a mirror or reconstructed via parity XOR.
	Blocks, Readable, Degraded, Lost int
}

// E8Result is the fault-tolerance report.
type E8Result struct {
	Config E8Config
	// MirrorOverhead is the storage multiplier of mirroring (always 2).
	MirrorOverhead float64
	// ParityOverhead is the realized multiplier of the hybrid parity
	// scheme, between 1+1/g and 2 depending on the collision rate.
	ParityOverhead float64
	Rows           []E8Row
}

// RunE8 exercises both Section 6 fault-tolerance extensions: blocks
// mirrored at offset f(N_j) = N_j/2, and the hybrid parity scheme the paper
// plans as future work ("data parity bits to handle faults with less
// required storage space"). Both survive every single-disk failure even
// after scaling operations; the drills also quantify each scheme's limit
// under a worst-case double failure and the storage saved by parity.
func RunE8(cfg E8Config) (*E8Result, error) {
	blocks := BlockUniverse(cfg.Objects, cfg.BlocksPer)
	objects := make(map[uint64]int)
	for _, b := range blocks {
		if int(b.Index)+1 > objects[b.Seed] {
			objects[b.Seed] = int(b.Index) + 1
		}
	}
	x0 := X0FuncBits(cfg.Bits)
	strat, err := placement.NewScaddar(cfg.N0, x0)
	if err != nil {
		return nil, err
	}
	m, err := mirror.New(strat, mirror.HalfOffset)
	if err != nil {
		return nil, err
	}
	p, err := parity.New(strat, cfg.ParityGroup)
	if err != nil {
		return nil, err
	}
	for op := 0; op < cfg.Ops; op++ {
		if err := strat.AddDisks(1); err != nil {
			return nil, err
		}
	}

	res := &E8Result{Config: cfg, MirrorOverhead: m.StorageOverhead()}
	res.ParityOverhead, err = p.Overhead(objects)
	if err != nil {
		return nil, err
	}
	record := func(name string, failed map[int]bool) error {
		mrep, err := m.Survive(blocks, failed)
		if err != nil {
			return err
		}
		res.Rows = append(res.Rows, E8Row{
			Scheme:   "mirror",
			Failed:   name,
			Blocks:   mrep.Blocks,
			Readable: mrep.Readable,
			Degraded: mrep.DegradedReads,
			Lost:     mrep.Lost,
		})
		prep, err := p.Survive(objects, failed)
		if err != nil {
			return err
		}
		res.Rows = append(res.Rows, E8Row{
			Scheme:   "parity",
			Failed:   name,
			Blocks:   prep.Blocks,
			Readable: prep.Blocks - prep.Lost,
			Degraded: prep.Reconstructed + prep.FromMirror,
			Lost:     prep.Lost,
		})
		return nil
	}

	// Every single-disk failure.
	for dsk := 0; dsk < strat.N(); dsk++ {
		if err := record(fmt.Sprintf("disk %d", dsk), map[int]bool{dsk: true}); err != nil {
			return nil, err
		}
	}
	// A non-partner double failure and the worst-case partner pair.
	n := strat.N()
	partner := mirror.HalfOffset(n) % n
	if err := record("disks 0+1 (non-partners)", map[int]bool{0: true, 1: true}); err != nil {
		return nil, err
	}
	if err := record(fmt.Sprintf("disks 0+%d (offset partners)", partner),
		map[int]bool{0: true, partner: true}); err != nil {
		return nil, err
	}
	return res, nil
}

// Table renders the fault-tolerance report.
func (r *E8Result) Table() *Table {
	t := &Table{
		ID: "E8",
		Caption: fmt.Sprintf("Section 6 — mirroring (%.0fx storage) vs hybrid parity g=%d (%.2fx) after %d scaling ops",
			r.MirrorOverhead, r.Config.ParityGroup, r.ParityOverhead, r.Config.Ops),
		Header: []string{"scheme", "failure", "blocks", "readable", "degraded/reconstructed", "lost"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Scheme, row.Failed, d(row.Blocks), d(row.Readable), d(row.Degraded), d(row.Lost),
		})
	}
	return t
}
