package experiments

import (
	"fmt"
	"time"

	"scaddar/internal/disk"
	"scaddar/internal/schedule"
)

// E10Config parameterizes the round-scheduling experiment.
//
//unreached:testsupport cmd/benchtables runs the paper's scale; the tests shrink it
type E10Config struct {
	// Profile is the disk model.
	Profile disk.Profile
	// BlockBytes is the block size.
	BlockBytes int64
	// Round is the scheduling round length.
	Round time.Duration
	// Trials is the Monte-Carlo sample per budget probe.
	Trials int
	// Seed fixes the randomness.
	Seed uint64
}

// DefaultE10 uses the paper-era configuration of the cm layer.
func DefaultE10() E10Config {
	return E10Config{
		Profile:    disk.Cheetah73,
		BlockBytes: 256 << 10,
		Round:      time.Second,
		Trials:     40,
		Seed:       1,
	}
}

// E10Row is one policy's per-round block budget.
type E10Row struct {
	Policy string
	// Budget is the number of uniformly random block reads that fit the
	// round (95th-percentile feasibility).
	Budget int
}

// E10Result is the scheduling report.
type E10Result struct {
	Config E10Config
	// FixedModel is the average-seek estimate the cm layer's admission
	// uses (disk.Profile.BlocksPerRound).
	FixedModel int
	Rows       []E10Row
}

// RunE10 validates the simulator's round model: scheduling each round's
// random requests with the elevator algorithm amortizes seeks, so the
// workload-aware SCAN/C-SCAN budgets exceed the fixed average-seek estimate
// the admission arithmetic uses — i.e. the fixed model is conservative, the
// safe direction. FCFS shows what ignoring scheduling costs.
func RunE10(cfg E10Config) (*E10Result, error) {
	model, err := schedule.Calibrate(cfg.Profile, cfg.BlockBytes)
	if err != nil {
		return nil, err
	}
	res := &E10Result{
		Config:     cfg,
		FixedModel: cfg.Profile.BlocksPerRound(cfg.Round, cfg.BlockBytes),
	}
	for _, policy := range []schedule.Policy{schedule.FCFS, schedule.SCAN, schedule.CSCAN} {
		budget, err := schedule.RoundBudget(model, cfg.Profile, cfg.BlockBytes, cfg.Round, policy, cfg.Trials, cfg.Seed)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, E10Row{Policy: policy.String(), Budget: budget})
	}
	return res, nil
}

// Table renders the scheduling report.
func (r *E10Result) Table() *Table {
	t := &Table{
		ID: "E10",
		Caption: fmt.Sprintf("Round scheduling — blocks/round on %s, %d KiB blocks, %v rounds (fixed avg-seek model: %d)",
			r.Config.Profile.Name, r.Config.BlockBytes>>10, r.Config.Round, r.FixedModel),
		Header: []string{"policy", "blocks/round"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{row.Policy, d(row.Budget)})
	}
	return t
}
