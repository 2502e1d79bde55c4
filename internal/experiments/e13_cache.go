package experiments

import (
	"fmt"

	"scaddar/internal/cm"
	"scaddar/internal/placement"
	"scaddar/internal/prng"
	"scaddar/internal/workload"
)

// E13Config parameterizes the block-buffer experiment.
//
//unreached:testsupport cmd/benchtables runs the paper's scale; the tests shrink it
type E13Config struct {
	// N0 is the disk count.
	N0 int
	// Objects and BlocksPer size the library.
	Objects, BlocksPer int
	// ZipfS is the popularity skew of arrivals.
	ZipfS float64
	// ArrivalsPerRound is the number of new streams admitted each round
	// (each starts at block 0, as real viewers do).
	ArrivalsPerRound int
	// Rounds is the run length.
	Rounds int
	// CacheSizes are the buffer sizes (in blocks) to sweep; 0 = no cache.
	CacheSizes []int
}

// DefaultE13 sweeps cache sizes on a 4-disk server with skewed arrivals.
func DefaultE13() E13Config {
	return E13Config{
		N0: 4, Objects: 10, BlocksPer: 300, ZipfS: 1.0,
		ArrivalsPerRound: 2, Rounds: 200,
		CacheSizes: []int{0, 128, 512, 2048},
	}
}

// E13Row is one cache size's outcome.
type E13Row struct {
	CacheBlocks int
	// HitRate is cache hits / blocks served.
	HitRate float64
	// DiskReads is the total disk reads over the run.
	DiskReads int
	// BlocksServed is the total stream deliveries.
	BlocksServed int
	// Hiccups over the run.
	Hiccups int
}

// E13Result is the block-buffer report.
type E13Result struct {
	Config E13Config
	Rows   []E13Row
}

// RunE13 measures the interval-caching effect on top of random placement:
// with Zipf-skewed arrivals, viewers of a popular title trail each other
// closely, and a modest block buffer serves the followers from RAM — the
// disks only carry each title's leading stream. Random placement and the
// buffer compose: placement spreads the leaders' reads uniformly, the
// buffer absorbs the followers.
func RunE13(cfg E13Config) (*E13Result, error) {
	res := &E13Result{Config: cfg}
	for _, size := range cfg.CacheSizes {
		row, err := runE13Once(cfg, size)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, *row)
	}
	return res, nil
}

// runE13Once runs the arrival schedule against one cache size.
func runE13Once(cfg E13Config, cacheBlocks int) (*E13Row, error) {
	x0 := placement.NewX0Func(func(seed uint64) prng.Source { return prng.NewSplitMix64(seed) })
	strat, err := placement.NewScaddar(cfg.N0, x0)
	if err != nil {
		return nil, err
	}
	serverCfg := cm.DefaultConfig()
	serverCfg.CacheBlocks = cacheBlocks
	srv, err := cm.NewServer(serverCfg, strat)
	if err != nil {
		return nil, err
	}
	lib, err := workload.Library(workload.LibraryConfig{
		Objects: cfg.Objects, MinBlocks: cfg.BlocksPer, MaxBlocks: cfg.BlocksPer,
		BlockBytes: serverCfg.BlockBytes, BitrateBitsPerSec: 4 << 20, SeedBase: 5,
	})
	if err != nil {
		return nil, err
	}
	for _, obj := range lib {
		if err := srv.AddObject(obj); err != nil {
			return nil, err
		}
	}
	zipf, err := workload.NewZipf(prng.NewSplitMix64(13), cfg.Objects, cfg.ZipfS)
	if err != nil {
		return nil, err
	}

	diskReads := 0
	for r := 0; r < cfg.Rounds; r++ {
		for a := 0; a < cfg.ArrivalsPerRound; a++ {
			// Admission may refuse near capacity; skip quietly — the
			// comparison is about how far each configuration gets.
			if _, err := srv.StartStream(zipf.Draw()); err != nil {
				break
			}
		}
		srv.Array().ResetRounds()
		if err := srv.Tick(); err != nil {
			return nil, err
		}
		for i := 0; i < srv.N(); i++ {
			d, err := srv.Array().Disk(i)
			if err != nil {
				return nil, err
			}
			reads, _, _ := d.RoundLoad()
			diskReads += reads
		}
	}
	m := srv.Metrics()
	hitRate := 0.0
	if m.BlocksServed > 0 {
		hitRate = float64(m.CacheHits) / float64(m.BlocksServed)
	}
	return &E13Row{
		CacheBlocks:  cacheBlocks,
		HitRate:      hitRate,
		DiskReads:    diskReads,
		BlocksServed: m.BlocksServed,
		Hiccups:      m.Hiccups,
	}, nil
}

// Table renders the block-buffer report.
func (r *E13Result) Table() *Table {
	t := &Table{
		ID: "E13",
		Caption: fmt.Sprintf("Block buffer — interval caching over random placement (Zipf %.2f, %d arrivals/round, %d rounds)",
			r.Config.ZipfS, r.Config.ArrivalsPerRound, r.Config.Rounds),
		Header: []string{"cache blocks", "hit rate", "disk reads", "blocks served", "hiccups"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			d(row.CacheBlocks), f3(row.HitRate), d(row.DiskReads), d(row.BlocksServed), d(row.Hiccups),
		})
	}
	return t
}
