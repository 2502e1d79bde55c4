package experiments

import (
	"fmt"

	"scaddar/internal/placement"
	"scaddar/internal/prng"
	"scaddar/internal/stats"
)

// E12Config parameterizes the generator-quality experiment.
//
//unreached:testsupport cmd/benchtables runs the paper's scale; the tests shrink it
type E12Config struct {
	// N0 is the initial disk count.
	N0 int
	// Ops is the number of single-disk additions before measuring.
	Ops int
	// Objects and BlocksPer size the block universe.
	Objects, BlocksPer int
}

// DefaultE12 measures after a 4-operation chain on 8 disks.
func DefaultE12() E12Config {
	return E12Config{N0: 8, Ops: 4, Objects: 20, BlocksPer: 1000}
}

// E12Row is one generator family's placement quality.
type E12Row struct {
	Generator string
	// CoV0 is the coefficient of variation of the initial placement.
	CoV0 float64
	// CoVJ is the CoV after the operation chain.
	CoVJ float64
	// ChiP0 and ChiPJ are chi-square uniformity p-values before and after.
	ChiP0, ChiPJ float64
}

// E12Result is the generator-quality report.
type E12Result struct {
	Config E12Config
	Rows   []E12Row
}

// RunE12 probes an assumption the paper states but does not test: "We will
// pretend in this analysis that the pseudo-random number generator in fact
// generates a truly random number." The REMAP chain consumes randomness
// from the HIGH end of X (q = X div N), so generators with weak low bits
// (the classic LCG failure) still place well — but a generator whose output
// is poor overall degrades both the initial placement and the post-chain
// balance. The table puts numbers on which families are safe to use as
// p_r(s_m).
func RunE12(cfg E12Config) (*E12Result, error) {
	families := []struct {
		name string
		mk   func(seed uint64) prng.Source
	}{
		{"splitmix64", func(s uint64) prng.Source { return prng.NewSplitMix64(s) }},
		{"xorshift64star", func(s uint64) prng.Source { return prng.NewXorshift64Star(s) }},
		{"pcg32", func(s uint64) prng.Source { return prng.NewPCG32(s) }},
		{"lcg64", func(s uint64) prng.Source { return prng.NewLCG64(s) }},
		// lcg64-low deliberately feeds the chain the WEAK low 32 bits of
		// the LCG (by discarding the high bits), the classic misuse.
		{"lcg64-low", func(s uint64) prng.Source { return &lowBits{src: prng.NewLCG64(s)} }},
	}
	res := &E12Result{Config: cfg}
	for _, fam := range families {
		x0 := placement.NewX0Func(fam.mk)
		strat, err := placement.NewScaddar(cfg.N0, x0)
		if err != nil {
			return nil, err
		}
		blocks := BlockUniverse(cfg.Objects, cfg.BlocksPer)
		loads0 := placement.LoadVector(strat, blocks)
		_, _, p0, err := stats.ChiSquareUniform(loads0)
		if err != nil {
			return nil, err
		}
		for op := 0; op < cfg.Ops; op++ {
			if err := strat.AddDisks(1); err != nil {
				return nil, err
			}
		}
		loadsJ := placement.LoadVector(strat, blocks)
		_, _, pJ, err := stats.ChiSquareUniform(loadsJ)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, E12Row{
			Generator: fam.name,
			CoV0:      stats.CoVInts(loads0),
			CoVJ:      stats.CoVInts(loadsJ),
			ChiP0:     p0,
			ChiPJ:     pJ,
		})
	}
	return res, nil
}

// lowBits exposes only the low 32 bits of a 64-bit source — the classic way
// to misuse an LCG.
type lowBits struct {
	src prng.Source
}

func (l *lowBits) Next() uint64 { return l.src.Next() & 0xFFFFFFFF }
func (l *lowBits) Bits() uint   { return 32 }
func (l *lowBits) Seed() uint64 { return l.src.Seed() }
func (l *lowBits) Reset()       { l.src.Reset() }

// interface check: lowBits is a valid Source.
var _ prng.Source = (*lowBits)(nil)

// Table renders the generator-quality report.
func (r *E12Result) Table() *Table {
	t := &Table{
		ID: "E12",
		Caption: fmt.Sprintf("Generator quality — placement uniformity before and after %d scaling ops (%d blocks)",
			r.Config.Ops, r.Config.Objects*r.Config.BlocksPer),
		Header: []string{"generator", "CoV initial", "CoV after ops", "chi² p initial", "chi² p after"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Generator, f4(row.CoV0), f4(row.CoVJ), f4(row.ChiP0), f4(row.ChiPJ),
		})
	}
	return t
}
