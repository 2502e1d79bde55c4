package experiments

import (
	"fmt"

	"scaddar/internal/cm"
	"scaddar/internal/disk"
	"scaddar/internal/placement"
	"scaddar/internal/prng"
	"scaddar/internal/workload"
)

// E11Config parameterizes the heterogeneous-array experiment.
//
//unreached:testsupport cmd/benchtables runs the paper's scale; the tests shrink it
type E11Config struct {
	// OldDisks is the number of old-generation disks.
	OldDisks int
	// NewDisks is the number of attached next-generation disks, each with
	// twice the old generation's per-round throughput.
	NewDisks int
	// Objects and BlocksPer size the library.
	Objects, BlocksPer int
	// Rounds is the verification run length at full admission.
	Rounds int
}

// DefaultE11 attaches 2 double-speed disks to a 6-disk array.
func DefaultE11() E11Config {
	return E11Config{OldDisks: 6, NewDisks: 2, Objects: 10, BlocksPer: 400, Rounds: 30}
}

// NextGen2x returns a disk profile with twice the Cheetah-class per-block
// throughput (faster seek, spindle, and transfer — a next-generation
// drive).
func NextGen2x() disk.Profile {
	p := disk.Cheetah73
	p.Name = "nextgen2x"
	p.AvgSeek /= 2
	p.RPM *= 2
	p.TransferBytesPerSec *= 2
	p.CapacityBytes *= 2
	return p
}

// E11Row is one configuration's outcome.
type E11Row struct {
	// Config names the wiring: "uniform over mixed disks" or "logical
	// mapping".
	Config string
	// LogicalDisks is the placement-visible disk count.
	LogicalDisks int
	// AdmittedStreams is the admission limit.
	AdmittedStreams int
	// UtilizationPct is AdmittedStreams as a percentage of the aggregate
	// physical block throughput.
	UtilizationPct float64
	// Hiccups observed across the verification run at full admission.
	Hiccups int
}

// E11Result is the heterogeneous-array report.
type E11Result struct {
	Config E11Config
	// PhysicalCapacity is the aggregate blocks/round of the hardware.
	PhysicalCapacity int
	Rows             []E11Row
}

// RunE11 quantifies the Section 6 heterogeneity claim. Uniform random
// placement over a mixed-generation array is bound by the WEAKEST disk
// (every disk receives the same demand, so the fast disks idle); carving
// each fast disk into old-generation-sized logical disks restores full
// utilization. The paper: "By applying previous work of mapping homogeneous
// logical disks to heterogeneous physical disks, SCADDAR may naturally
// evolve to allow block redistribution on heterogeneous physical disks."
func RunE11(cfg E11Config) (*E11Result, error) {
	old := disk.Cheetah73
	next := NextGen2x()
	base := cm.DefaultConfig()
	oldCap := old.BlocksPerRound(base.Round, base.BlockBytes)
	newCap := next.BlocksPerRound(base.Round, base.BlockBytes)
	res := &E11Result{
		Config:           cfg,
		PhysicalCapacity: cfg.OldDisks*oldCap + cfg.NewDisks*newCap,
	}

	// (a) Uniform placement over the mixed physical array: attach the new
	// disks as-is via ScaleUpProfile.
	mixed, err := buildE11Server(cfg, cfg.OldDisks)
	if err != nil {
		return nil, err
	}
	if _, err := mixed.ScaleUpProfile(cfg.NewDisks, next); err != nil {
		return nil, err
	}
	for mixed.Reorganizing() {
		if err := mixed.Tick(); err != nil {
			return nil, err
		}
	}
	if err := mixed.FinishReorganization(); err != nil {
		return nil, err
	}
	row, err := runE11Verification(cfg, mixed, "uniform over mixed disks")
	if err != nil {
		return nil, err
	}
	row.UtilizationPct = 100 * float64(row.AdmittedStreams) / float64(res.PhysicalCapacity)
	res.Rows = append(res.Rows, *row)

	// (b) The logical mapping: each fast disk hosts logicalPerNew
	// old-equivalent logical disks, so the placement sees a homogeneous
	// array of old-generation units.
	logicalPerNew := newCap / oldCap
	logicalN := cfg.OldDisks + cfg.NewDisks*logicalPerNew
	mapped, err := buildE11Server(cfg, cfg.OldDisks)
	if err != nil {
		return nil, err
	}
	if _, err := mapped.ScaleUp(cfg.NewDisks * logicalPerNew); err != nil {
		return nil, err
	}
	for mapped.Reorganizing() {
		if err := mapped.Tick(); err != nil {
			return nil, err
		}
	}
	if err := mapped.FinishReorganization(); err != nil {
		return nil, err
	}
	if mapped.N() != logicalN {
		return nil, fmt.Errorf("experiments: mapped array has %d logical disks, want %d", mapped.N(), logicalN)
	}
	row, err = runE11Verification(cfg, mapped, "logical mapping")
	if err != nil {
		return nil, err
	}
	row.UtilizationPct = 100 * float64(row.AdmittedStreams) / float64(res.PhysicalCapacity)
	res.Rows = append(res.Rows, *row)
	return res, nil
}

// buildE11Server builds a server over n old-generation disks with the
// standard library.
func buildE11Server(cfg E11Config, n int) (*cm.Server, error) {
	x0 := placement.NewX0Func(func(seed uint64) prng.Source { return prng.NewSplitMix64(seed) })
	strat, err := placement.NewScaddar(n, x0)
	if err != nil {
		return nil, err
	}
	// Statistical admission (overload probability ≤ 1e-4 per round) keeps
	// both configurations hiccup-free, so the comparison is purely about
	// how much hardware each wiring can sell.
	serverCfg := cm.DefaultConfig()
	serverCfg.OverloadTarget = 1e-4
	srv, err := cm.NewServer(serverCfg, strat)
	if err != nil {
		return nil, err
	}
	lib, err := workload.Library(workload.LibraryConfig{
		Objects: cfg.Objects, MinBlocks: cfg.BlocksPer, MaxBlocks: cfg.BlocksPer,
		BlockBytes: srv.Config().BlockBytes, BitrateBitsPerSec: 4 << 20, SeedBase: 11,
	})
	if err != nil {
		return nil, err
	}
	for _, obj := range lib {
		if err := srv.AddObject(obj); err != nil {
			return nil, err
		}
	}
	return srv, nil
}

// runE11Verification admits to the limit, runs the verification rounds, and
// reports.
func runE11Verification(cfg E11Config, srv *cm.Server, name string) (*E11Row, error) {
	pos := prng.NewSplitMix64(3)
	admitted := 0
	for {
		st, err := srv.StartStream(admitted % cfg.Objects)
		if err != nil {
			break // admission limit reached
		}
		if err := srv.SeekStream(st.ID, int(pos.Next()%uint64(cfg.BlocksPer))); err != nil {
			return nil, err
		}
		admitted++
	}
	before := srv.Metrics().Hiccups
	for r := 0; r < cfg.Rounds; r++ {
		if err := srv.Tick(); err != nil {
			return nil, err
		}
	}
	return &E11Row{
		Config:          name,
		LogicalDisks:    srv.N(),
		AdmittedStreams: admitted,
		Hiccups:         srv.Metrics().Hiccups - before,
	}, nil
}

// Table renders the heterogeneous-array report.
func (r *E11Result) Table() *Table {
	t := &Table{
		ID: "E11",
		Caption: fmt.Sprintf("Section 6 — %d old + %d double-speed disks (aggregate %d blocks/round)",
			r.Config.OldDisks, r.Config.NewDisks, r.PhysicalCapacity),
		Header: []string{"wiring", "logical disks", "admitted streams", "hw utilization", "hiccups"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Config, d(row.LogicalDisks), d(row.AdmittedStreams),
			fmt.Sprintf("%.0f%%", row.UtilizationPct), d(row.Hiccups),
		})
	}
	return t
}
