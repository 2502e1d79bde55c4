package experiments

import (
	"fmt"

	"scaddar/internal/prng"
	"scaddar/internal/scaddar"
	"scaddar/internal/stats"
)

// E6Config parameterizes the unfairness-bound experiment.
//
//unreached:testsupport cmd/benchtables runs the paper's scale; the tests shrink it
type E6Config struct {
	// Bits is the generator width; small widths make the bound reachable
	// empirically.
	Bits uint
	// N0 is the initial disk count.
	N0 int
	// Ops is the number of single-disk additions.
	Ops int
	// Blocks is the sample size per measurement.
	Blocks int
}

// DefaultE6 uses a deliberately small 20-bit budget so the bound's growth
// is visible within a handful of operations.
func DefaultE6() E6Config { return E6Config{Bits: 20, N0: 4, Ops: 8, Blocks: 1 << 19} }

// E6Row is one measurement.
type E6Row struct {
	Ops   int
	Disks int
	// Empirical is the measured max/min - 1 over per-disk block counts.
	Empirical float64
	// Bound is the analytical guarantee 1/(R0/μ_k - 1) of Lemma 4.3.
	Bound float64
	// CoV is the coefficient of variation at this point.
	CoV float64
}

// E6Result is the unfairness series.
type E6Result struct {
	Config E6Config
	Rows   []E6Row
}

// RunE6 verifies Lemmas 4.2/4.3 empirically: the measured unfairness of a
// SCADDAR placement stays below the analytical bound as operations accrue
// and the random range shrinks. The empirical figure includes sampling
// noise of roughly sqrt(N/Blocks), so the bound dominating it is the
// expected outcome until the budget collapses.
func RunE6(cfg E6Config) (*E6Result, error) {
	h, err := scaddar.NewHistory(cfg.N0)
	if err != nil {
		return nil, err
	}
	budget, err := scaddar.NewBudget(cfg.Bits, cfg.N0)
	if err != nil {
		return nil, err
	}
	src, ok := prng.Truncate(prng.NewSplitMix64(20260704), cfg.Bits).(prng.Indexed)
	if !ok {
		return nil, fmt.Errorf("experiments: truncated source lost indexing")
	}

	res := &E6Result{Config: cfg}
	measure := func() error {
		counts := make([]int, h.N())
		for i := 0; i < cfg.Blocks; i++ {
			counts[h.Locate(src.At(uint64(i)))]++
		}
		unf, err := stats.UnfairnessInts(counts)
		if err != nil {
			return err
		}
		res.Rows = append(res.Rows, E6Row{
			Ops:       h.Ops(),
			Disks:     h.N(),
			Empirical: unf,
			Bound:     budget.GuaranteedUnfairness(),
			CoV:       stats.CoVInts(counts),
		})
		return nil
	}
	if err := measure(); err != nil {
		return nil, err
	}
	for op := 1; op <= cfg.Ops; op++ {
		if _, err := h.Add(1); err != nil {
			return nil, err
		}
		if err := budget.Record(h.N()); err != nil {
			return nil, err
		}
		if err := measure(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Table renders the unfairness series.
func (r *E6Result) Table() *Table {
	t := &Table{
		ID: "E6",
		Caption: fmt.Sprintf("Lemmas 4.2/4.3 — empirical unfairness vs. analytical bound (b=%d, %d blocks)",
			r.Config.Bits, r.Config.Blocks),
		Header: []string{"ops j", "disks", "empirical (max/min - 1)", "bound", "CoV"},
	}
	for _, row := range r.Rows {
		bound := "∞"
		if row.Bound < 1e6 {
			bound = f4(row.Bound)
		}
		t.Rows = append(t.Rows, []string{
			d(row.Ops), d(row.Disks), f4(row.Empirical), bound, f4(row.CoV),
		})
	}
	return t
}
