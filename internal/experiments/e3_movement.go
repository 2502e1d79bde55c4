package experiments

import (
	"fmt"

	"scaddar/internal/placement"
	"scaddar/internal/prng"
)

// E3Config parameterizes the movement-fraction experiment.
//
//unreached:testsupport cmd/benchtables runs the paper's scale; the tests shrink it
type E3Config struct {
	// Objects and BlocksPer size the block universe.
	Objects, BlocksPer int
	// Bits is the generator width.
	Bits uint
}

// DefaultE3 uses a 20k-block universe.
func DefaultE3() E3Config { return E3Config{Objects: 20, BlocksPer: 1000, Bits: 64} }

// E3Step is one scaling operation in the schedule.
type E3Step struct {
	// NBefore and NAfter describe the operation.
	NBefore, NAfter int
	// Remove lists the logical indices removed (nil for additions).
	Remove []int
}

// DefaultE3Schedule exercises additions and removals of single disks and
// groups.
func DefaultE3Schedule() []E3Step {
	return []E3Step{
		{NBefore: 8, NAfter: 10},                      // add a 2-disk group
		{NBefore: 10, NAfter: 11},                     // add 1
		{NBefore: 11, NAfter: 9, Remove: []int{2, 7}}, // remove a 2-disk group
		{NBefore: 9, NAfter: 12},                      // add 3
		{NBefore: 12, NAfter: 11, Remove: []int{0}},   // remove 1
	}
}

// E3Row is the measurement of one operation under one strategy.
type E3Row struct {
	Op       string
	Strategy string
	// Fraction is the fraction of all blocks that changed physical disks.
	Fraction float64
	// Optimal is z_j.
	Optimal float64
}

// E3Result is the movement table.
type E3Result struct {
	Config E3Config
	Rows   []E3Row
}

// RunE3 measures the per-operation movement fraction of every strategy
// against the optimal z_j of Definition 3.4, over a mixed schedule of
// additions and removals. SCADDAR, the directory scheme, and the naive
// scheme should sit at z_j; complete redistribution and round-robin far
// above it; consistent hashing near it.
func RunE3(cfg E3Config) (*E3Result, error) {
	blocks := BlockUniverse(cfg.Objects, cfg.BlocksPer)
	x0 := X0FuncBits(cfg.Bits)
	schedule := DefaultE3Schedule()
	n0 := schedule[0].NBefore

	sc, err := placement.NewScaddar(n0, x0)
	if err != nil {
		return nil, err
	}
	nv, err := placement.NewNaive(n0, x0)
	if err != nil {
		return nil, err
	}
	rs, err := placement.NewReshuffle(n0, x0)
	if err != nil {
		return nil, err
	}
	rr, err := placement.NewRoundRobin(n0)
	if err != nil {
		return nil, err
	}
	dir, err := placement.NewDirectory(n0, prng.NewSplitMix64(99))
	if err != nil {
		return nil, err
	}
	ch, err := placement.NewConsistent(n0, 128)
	if err != nil {
		return nil, err
	}
	jp, err := placement.NewJump(n0, x0)
	if err != nil {
		return nil, err
	}
	strategies := []placement.Strategy{sc, nv, rs, rr, dir, ch, jp}

	res := &E3Result{Config: cfg}
	for _, step := range schedule {
		opName := fmt.Sprintf("%d→%d", step.NBefore, step.NAfter)
		for _, s := range strategies {
			if s.Name() == "jump" && step.Remove != nil {
				// Jump hashing cannot remove arbitrary buckets — the
				// structural limitation this comparison documents. Keep its
				// disk count in sync by shrinking at the tail instead, and
				// record the row as not-applicable.
				tail := make([]int, len(step.Remove))
				for i := range tail {
					tail[i] = step.NAfter + i
				}
				if err := s.RemoveDisks(tail...); err != nil {
					return nil, err
				}
				res.Rows = append(res.Rows, E3Row{
					Op: opName, Strategy: s.Name(),
					Fraction: -1, // marker: not applicable
					Optimal:  placement.OptimalMoveFraction(step.NBefore, step.NAfter),
				})
				continue
			}
			if s.N() != step.NBefore {
				return nil, fmt.Errorf("experiments: %s has %d disks, schedule expects %d", s.Name(), s.N(), step.NBefore)
			}
			before := placement.Snapshot(s, blocks)
			var moves int
			if step.Remove == nil {
				if err := s.AddDisks(step.NAfter - step.NBefore); err != nil {
					return nil, err
				}
				after := placement.Snapshot(s, blocks)
				moves, err = placement.Moves(before, after)
			} else {
				if err := s.RemoveDisks(step.Remove...); err != nil {
					return nil, err
				}
				after := placement.Snapshot(s, blocks)
				moves, err = placement.MovedPhysical(before, after, step.NBefore, sortedCopy(step.Remove))
			}
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, E3Row{
				Op:       opName,
				Strategy: s.Name(),
				Fraction: float64(moves) / float64(len(blocks)),
				Optimal:  placement.OptimalMoveFraction(step.NBefore, step.NAfter),
			})
		}
	}
	return res, nil
}

// sortedCopy returns a sorted copy of xs.
func sortedCopy(xs []int) []int {
	out := append([]int(nil), xs...)
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && out[k] < out[k-1]; k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	return out
}

// Table renders the movement-fraction table.
func (r *E3Result) Table() *Table {
	t := &Table{
		ID:      "E3",
		Caption: "RO1 — fraction of blocks moved per scaling operation (optimal = z_j)",
		Header:  []string{"op", "z_j", "scaddar", "naive", "directory", "consistent", "jump", "reshuffle", "roundrobin"},
	}
	byOp := map[string]map[string]float64{}
	var order []string
	optimal := map[string]float64{}
	for _, row := range r.Rows {
		if _, ok := byOp[row.Op]; !ok {
			byOp[row.Op] = map[string]float64{}
			order = append(order, row.Op)
		}
		byOp[row.Op][row.Strategy] = row.Fraction
		optimal[row.Op] = row.Optimal
	}
	cell := func(v float64) string {
		if v < 0 {
			return "n/a"
		}
		return f3(v)
	}
	for _, op := range order {
		m := byOp[op]
		t.Rows = append(t.Rows, []string{
			op, f3(optimal[op]),
			cell(m["scaddar"]), cell(m["naive"]), cell(m["directory"]),
			cell(m["consistent"]), cell(m["jump"]), cell(m["reshuffle"]), cell(m["roundrobin"]),
		})
	}
	return t
}
