package experiments

import (
	"fmt"
	"time"

	"scaddar/internal/placement"
	"scaddar/internal/prng"
	"scaddar/internal/scaddar"
)

// E5Config parameterizes the access-cost experiment.
//
//unreached:testsupport cmd/benchtables runs the paper's scale; the tests shrink it
type E5Config struct {
	// OpCounts are the history lengths j at which to measure lookups.
	OpCounts []int
	// Lookups is the number of lookups to time per point.
	Lookups int
}

// DefaultE5 measures at j = 0, 1, 2, 4, 8, 16, 32 with 200k lookups each.
func DefaultE5() E5Config {
	return E5Config{OpCounts: []int{0, 1, 2, 4, 8, 16, 32}, Lookups: 200000}
}

// E5Row is the cost at one history length.
type E5Row struct {
	Ops int
	// ScaddarNs is nanoseconds per SCADDAR chain lookup.
	ScaddarNs float64
	// DirectoryNs is nanoseconds per directory map lookup.
	DirectoryNs float64
	// ReshuffleNs is nanoseconds per plain X0 mod N computation.
	ReshuffleNs float64
}

// E5Result is the access-cost series.
type E5Result struct {
	Config E5Config
	Rows   []E5Row
}

// RunE5 quantifies AO1: the cost of locating a block grows linearly — and
// cheaply — with the number of recorded scaling operations, stays within
// the same order as a directory hash lookup, and needs no per-block state.
// The timings use the wall clock and are meant for relative comparison; the
// root benchmarks measure the same thing under testing.B.
func RunE5(cfg E5Config) (*E5Result, error) {
	if cfg.Lookups < 1 {
		return nil, fmt.Errorf("experiments: E5 needs at least one lookup")
	}
	res := &E5Result{Config: cfg}
	// Pre-generate the x0 population once.
	xs := make([]uint64, 4096)
	src := prng.NewSplitMix64(4242)
	for i := range xs {
		xs[i] = src.Next()
	}
	for _, ops := range cfg.OpCounts {
		h, err := scaddar.NewHistory(8)
		if err != nil {
			return nil, err
		}
		for j := 0; j < ops; j++ {
			// Alternate adds and removals so both REMAP forms are timed.
			if j%3 == 2 {
				if _, err := h.Remove(j % h.N()); err != nil {
					return nil, err
				}
			} else {
				if _, err := h.Add(1); err != nil {
					return nil, err
				}
			}
		}

		start := time.Now()
		sink := 0
		for i := 0; i < cfg.Lookups; i++ {
			sink += h.Locate(xs[i%len(xs)])
		}
		scNs := float64(time.Since(start).Nanoseconds()) / float64(cfg.Lookups)

		// Directory lookup: a map from block to disk.
		dir, err := placement.NewDirectory(h.N(), prng.NewSplitMix64(7))
		if err != nil {
			return nil, err
		}
		refs := make([]placement.BlockRef, len(xs))
		for i := range refs {
			refs[i] = placement.BlockRef{Seed: uint64(i), Index: uint64(i)}
			dir.Disk(refs[i]) // pre-populate
		}
		start = time.Now()
		for i := 0; i < cfg.Lookups; i++ {
			sink += dir.Disk(refs[i%len(refs)])
		}
		dirNs := float64(time.Since(start).Nanoseconds()) / float64(cfg.Lookups)

		n := uint64(h.N())
		start = time.Now()
		for i := 0; i < cfg.Lookups; i++ {
			sink += int(xs[i%len(xs)] % n)
		}
		rsNs := float64(time.Since(start).Nanoseconds()) / float64(cfg.Lookups)
		if sink == -1 {
			return nil, fmt.Errorf("experiments: impossible") // keep sink alive
		}

		res.Rows = append(res.Rows, E5Row{Ops: ops, ScaddarNs: scNs, DirectoryNs: dirNs, ReshuffleNs: rsNs})
	}
	return res, nil
}

// Table renders the access-cost series.
func (r *E5Result) Table() *Table {
	t := &Table{
		ID:      "E5",
		Caption: "AO1 — block-location cost vs. number of scaling operations (ns/lookup)",
		Header:  []string{"ops j", "scaddar chain", "directory map", "mod-only"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			d(row.Ops), f3(row.ScaddarNs), f3(row.DirectoryNs), f3(row.ReshuffleNs),
		})
	}
	return t
}
