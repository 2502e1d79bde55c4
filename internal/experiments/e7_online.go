package experiments

import (
	"fmt"

	"scaddar/internal/cm"
	"scaddar/internal/placement"
	"scaddar/internal/prng"
	"scaddar/internal/workload"
)

// E7Config parameterizes the online-reorganization experiment.
//
//unreached:testsupport cmd/benchtables runs the paper's scale; the tests shrink it
type E7Config struct {
	// N0 is the initial disk count.
	N0 int
	// AddDisks is the size of the added disk group.
	AddDisks int
	// Objects and BlocksPer size the library.
	Objects, BlocksPer int
	// StreamLoad is the fraction of admission capacity to occupy with
	// active streams during the migration.
	StreamLoad float64
	// MaxRounds caps the simulation.
	MaxRounds int
}

// DefaultE7 scales an 8-disk server to 10 under a 60% stream load.
func DefaultE7() E7Config {
	return E7Config{N0: 8, AddDisks: 2, Objects: 20, BlocksPer: 1000, StreamLoad: 0.6, MaxRounds: 100000}
}

// E7Row is the outcome at one stream-load level.
type E7Row struct {
	// LoadFraction is the occupied fraction of admission capacity.
	LoadFraction float64
	// ActiveStreams is the number of concurrent streams.
	ActiveStreams int
	// PlanMoves is the number of blocks the operation must move.
	PlanMoves int
	// Rounds is how many scheduling rounds the throttled migration took.
	Rounds int
	// Hiccups counts stream-rounds that missed their deadline during the
	// migration.
	Hiccups int
	// BlocksServed counts stream blocks delivered during the migration.
	BlocksServed int
}

// E7Result is the online-reorganization report.
type E7Result struct {
	Config E7Config
	Rows   []E7Row
}

// RunE7 demonstrates the motivation of Sections 1 and 6: a SCADDAR scale-out
// executed online, with migration throttled to each disk's spare bandwidth,
// completes without a single missed stream deadline — at higher stream loads
// it simply takes more rounds. The zero-load row gives the fastest possible
// drain for comparison.
func RunE7(cfg E7Config) (*E7Result, error) {
	res := &E7Result{Config: cfg}
	for _, load := range []float64{0, cfg.StreamLoad / 2, cfg.StreamLoad} {
		row, err := runE7Once(cfg, load)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, *row)
	}
	return res, nil
}

// runE7Once runs one scale-out under the given stream load.
func runE7Once(cfg E7Config, load float64) (*E7Row, error) {
	x0 := placement.NewX0Func(func(seed uint64) prng.Source { return prng.NewSplitMix64(seed) })
	strat, err := placement.NewScaddar(cfg.N0, x0)
	if err != nil {
		return nil, err
	}
	srv, err := cm.NewServer(cm.DefaultConfig(), strat)
	if err != nil {
		return nil, err
	}
	lib, err := workload.Library(workload.LibraryConfig{
		Objects:           cfg.Objects,
		MinBlocks:         cfg.BlocksPer,
		MaxBlocks:         cfg.BlocksPer,
		BlockBytes:        srv.Config().BlockBytes,
		BitrateBitsPerSec: 4 << 20,
		SeedBase:          777,
	})
	if err != nil {
		return nil, err
	}
	for _, obj := range lib {
		if err := srv.AddObject(obj); err != nil {
			return nil, err
		}
	}

	// Occupy the requested fraction of admission capacity, spreading
	// streams over objects by a Zipf popularity draw. Streams are staggered
	// to uniform playback positions — the steady state of a server whose
	// viewers arrived over time; admitting hundreds of viewers of one object
	// at the identical position would instead model a synchronized flash
	// crowd and hotspot a single disk per round.
	zipf, err := workload.NewZipf(prng.NewSplitMix64(31), cfg.Objects, 0.729)
	if err != nil {
		return nil, err
	}
	positions := prng.NewSplitMix64(32)
	capacityStreams := int(load * float64(srv.N()) * float64(srv.Config().Profile.BlocksPerRound(srv.Config().Round, srv.Config().BlockBytes)))
	stagger := func() error {
		obj := zipf.Draw()
		st, err := srv.StartStream(obj)
		if err != nil {
			return err
		}
		blocks := lib[obj].Blocks
		return srv.SeekStream(st.ID, int(positions.Next()%uint64(blocks)))
	}
	for i := 0; i < capacityStreams; i++ {
		if err := stagger(); err != nil {
			return nil, err
		}
	}

	plan, err := srv.ScaleUp(cfg.AddDisks)
	if err != nil {
		return nil, err
	}
	baseline := srv.Metrics()
	rounds := 0
	for srv.Reorganizing() {
		if err := srv.Tick(); err != nil {
			return nil, err
		}
		rounds++
		if rounds > cfg.MaxRounds {
			return nil, fmt.Errorf("experiments: migration did not converge in %d rounds", cfg.MaxRounds)
		}
		// Keep the stream population topped up as streams finish, so the
		// load level is sustained for the whole migration.
		for srv.ActiveStreams() < capacityStreams {
			if err := stagger(); err != nil {
				return nil, err
			}
		}
	}
	if err := srv.FinishReorganization(); err != nil {
		return nil, err
	}
	m := srv.Metrics()
	return &E7Row{
		LoadFraction:  load,
		ActiveStreams: capacityStreams,
		PlanMoves:     len(plan.Moves),
		Rounds:        rounds,
		Hiccups:       m.Hiccups - baseline.Hiccups,
		BlocksServed:  m.BlocksServed - baseline.BlocksServed,
	}, nil
}

// Table renders the online-reorganization report.
func (r *E7Result) Table() *Table {
	t := &Table{
		ID: "E7",
		Caption: fmt.Sprintf("Online reorganization — scale %d→%d disks under live streams (1s rounds)",
			r.Config.N0, r.Config.N0+r.Config.AddDisks),
		Header: []string{"stream load", "streams", "plan moves", "rounds to drain", "hiccups", "blocks served"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			f3(row.LoadFraction), d(row.ActiveStreams), d(row.PlanMoves),
			d(row.Rounds), d(row.Hiccups), d(row.BlocksServed),
		})
	}
	return t
}
