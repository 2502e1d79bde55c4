package experiments

import (
	"fmt"

	"scaddar/internal/placement"
)

// E1Config parameterizes the Figure 1 reproduction.
//
//unreached:testsupport cmd/benchtables runs the paper's scale; the tests shrink it
type E1Config struct {
	// N0 is the initial disk count (the figure uses 4).
	N0 int
	// Adds is the number of successive single-disk additions (the figure
	// shows 2).
	Adds int
	// Objects and BlocksPer size the block universe.
	Objects, BlocksPer int
	// Bits is the generator width.
	Bits uint
}

// DefaultE1 matches Figure 1: 4 initial disks, two single-disk additions.
func DefaultE1() E1Config {
	return E1Config{N0: 4, Adds: 2, Objects: 40, BlocksPer: 500, Bits: 64}
}

// E1Result reports, for the final addition, how many movers each
// pre-existing disk contributed, per strategy.
type E1Result struct {
	Config E1Config
	// Sources[strategy][disk] is the number of blocks the final addition
	// moved off that disk.
	Sources map[string][]int
	// IgnoredDisks[strategy] lists disks that contributed no movers — the
	// Figure 1 pathology when non-empty for a scheme that should draw
	// uniformly.
	IgnoredDisks map[string][]int
}

// RunE1 reproduces Figure 1: under the naive scheme the second addition
// draws movers only from a subset of disks (the paper's example: disks 1, 3
// and 4, ignoring 0 and 2), while SCADDAR draws from all of them.
func RunE1(cfg E1Config) (*E1Result, error) {
	if cfg.Adds < 2 {
		return nil, fmt.Errorf("experiments: E1 needs at least 2 additions to expose the skew")
	}
	blocks := BlockUniverse(cfg.Objects, cfg.BlocksPer)
	x0 := X0FuncBits(cfg.Bits)

	naive, err := placement.NewNaive(cfg.N0, x0)
	if err != nil {
		return nil, err
	}
	sc, err := placement.NewScaddar(cfg.N0, x0)
	if err != nil {
		return nil, err
	}

	res := &E1Result{
		Config:       cfg,
		Sources:      make(map[string][]int),
		IgnoredDisks: make(map[string][]int),
	}
	for _, strat := range []placement.Strategy{naive, sc} {
		for op := 0; op < cfg.Adds-1; op++ {
			if err := strat.AddDisks(1); err != nil {
				return nil, err
			}
		}
		before := placement.Snapshot(strat, blocks)
		if err := strat.AddDisks(1); err != nil {
			return nil, err
		}
		after := placement.Snapshot(strat, blocks)
		sources := make([]int, strat.N()-1)
		for i := range blocks {
			if before[i] != after[i] {
				sources[before[i]]++
			}
		}
		res.Sources[strat.Name()] = sources
		var ignored []int
		for disk, c := range sources {
			if c == 0 {
				ignored = append(ignored, disk)
			}
		}
		res.IgnoredDisks[strat.Name()] = ignored
	}
	return res, nil
}

// Table renders the result.
func (r *E1Result) Table() *Table {
	t := &Table{
		ID: "E1",
		Caption: fmt.Sprintf("Figure 1 — source disks of blocks moved by addition #%d (N0=%d, 1-disk adds)",
			r.Config.Adds, r.Config.N0),
		Header: []string{"strategy", "per-disk movers", "ignored disks"},
	}
	for _, name := range []string{"naive", "scaddar"} {
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%v", r.Sources[name]),
			fmt.Sprintf("%v", r.IgnoredDisks[name]),
		})
	}
	return t
}
