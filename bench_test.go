package scaddar_test

// One benchmark per paper artifact (E1..E8; see DESIGN.md for the index),
// plus micro-benchmarks of the core operations whose cost the paper argues
// about: the REMAP chain lookup (AO1), plan construction (RF), and the
// operation-log codec. Run with:
//
//	go test -bench=. -benchmem
//
// The E* benchmarks execute a full experiment per iteration, so their
// ns/op is the cost of regenerating the corresponding table.

import (
	"testing"

	"scaddar"
	"scaddar/internal/experiments"
	"scaddar/internal/placement"
	"scaddar/internal/prng"
	iscaddar "scaddar/internal/scaddar"
)

// BenchmarkE1NaiveSkew regenerates Figure 1 (naive-approach skew).
func BenchmarkE1NaiveSkew(b *testing.B) {
	cfg := experiments.DefaultE1()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE1(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2LoadBalance regenerates the Section 5 CoV-vs-operations series.
func BenchmarkE2LoadBalance(b *testing.B) {
	cfg := experiments.DefaultE2()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE2(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3Movement regenerates the RO1 movement-fraction table.
func BenchmarkE3Movement(b *testing.B) {
	cfg := experiments.DefaultE3()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE3(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4Bound regenerates the Section 4.3 budget table.
func BenchmarkE4Bound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE4(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5AccessCost regenerates the AO1 access-cost series (with a
// reduced lookup count per iteration; the table itself times lookups).
func BenchmarkE5AccessCost(b *testing.B) {
	cfg := experiments.DefaultE5()
	cfg.Lookups = 20000
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE5(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6Unfairness regenerates the Lemma 4.2/4.3 bound-vs-empirical
// series.
func BenchmarkE6Unfairness(b *testing.B) {
	cfg := experiments.DefaultE6()
	cfg.Blocks = 1 << 16
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE6(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7OnlineReorg regenerates the online-reorganization table.
func BenchmarkE7OnlineReorg(b *testing.B) {
	cfg := experiments.DefaultE7()
	cfg.Objects = 10
	cfg.BlocksPer = 300
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE7(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8Mirror regenerates the Section 6 fault-tolerance table
// (mirroring vs hybrid parity).
func BenchmarkE8Mirror(b *testing.B) {
	cfg := experiments.DefaultE8()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE8(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9Storage regenerates the metadata-storage comparison.
func BenchmarkE9Storage(b *testing.B) {
	cfg := experiments.DefaultE9()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE9(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10Schedule regenerates the round-scheduling budgets.
func BenchmarkE10Schedule(b *testing.B) {
	cfg := experiments.DefaultE10()
	cfg.Trials = 10
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE10(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11Hetero regenerates the heterogeneous-array comparison.
func BenchmarkE11Hetero(b *testing.B) {
	cfg := experiments.DefaultE11()
	cfg.Rounds = 5
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE11(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE12Generators regenerates the generator-quality comparison.
func BenchmarkE12Generators(b *testing.B) {
	cfg := experiments.DefaultE12()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE12(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE13Cache regenerates the block-buffer sweep.
func BenchmarkE13Cache(b *testing.B) {
	cfg := experiments.DefaultE13()
	cfg.Rounds = 50
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE13(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSafeLocatorParallel measures the concurrent access function
// under contention — a mixed read pattern across 8 objects.
func BenchmarkSafeLocatorParallel(b *testing.B) {
	hist := scaddar.MustNewHistory(8)
	hist.Add(2)
	hist.Remove(3)
	loc, err := scaddar.NewSafeLocator(hist, func(seed uint64) scaddar.Source {
		return scaddar.NewSplitMix64(seed)
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := uint64(0)
		for pb.Next() {
			i++
			if _, err := loc.Disk(i%8+1, i%10000); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- Micro-benchmarks of the core operations ----

// benchHistory builds a j-operation history mixing adds and removals.
func benchHistory(b *testing.B, ops int) *iscaddar.History {
	b.Helper()
	h, err := iscaddar.NewHistory(8)
	if err != nil {
		b.Fatal(err)
	}
	for j := 0; j < ops; j++ {
		if j%3 == 2 {
			if _, err := h.Remove(j % h.N()); err != nil {
				b.Fatal(err)
			}
		} else {
			if _, err := h.Add(1); err != nil {
				b.Fatal(err)
			}
		}
	}
	return h
}

// BenchmarkLocate measures the AO1 chain lookup at several history lengths.
func BenchmarkLocate(b *testing.B) {
	for _, ops := range []int{0, 1, 4, 16, 64} {
		h := benchHistory(b, ops)
		b.Run(benchName("ops", ops), func(b *testing.B) {
			b.ReportAllocs()
			x := uint64(0x9e3779b97f4a7c15)
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += h.Locate(x + uint64(i))
			}
			if sink == -1 {
				b.Fatal("impossible")
			}
		})
	}
}

// BenchmarkLocateBatch measures the compiled chain's bulk sweep at the same
// history lengths as BenchmarkLocate; ns/op here covers 4096 blocks per
// iteration (see the ns/block metric).
func BenchmarkLocateBatch(b *testing.B) {
	xs := make([]uint64, 4096)
	src := prng.NewSplitMix64(7)
	for i := range xs {
		xs[i] = src.Next()
	}
	out := make([]int, len(xs))
	for _, ops := range []int{0, 1, 4, 16, 64} {
		chain := benchHistory(b, ops).Compile()
		b.Run(benchName("ops", ops), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				chain.LocateBatch(xs, out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(xs)), "ns/block")
		})
	}
}

// BenchmarkLocatorDisk measures the full access function including the
// per-object generator.
func BenchmarkLocatorDisk(b *testing.B) {
	hist, err := scaddar.NewHistory(8)
	if err != nil {
		b.Fatal(err)
	}
	hist.Add(2)
	hist.Remove(3)
	loc, err := scaddar.NewLocator(hist, func(seed uint64) scaddar.Source {
		return scaddar.NewSplitMix64(seed)
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := loc.Disk(42, uint64(i%10000)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStrategyDisk compares per-lookup cost across strategies after a
// 4-operation history.
func BenchmarkStrategyDisk(b *testing.B) {
	x0 := placement.NewX0Func(func(seed uint64) prng.Source { return prng.NewSplitMix64(seed) })
	sc, _ := placement.NewScaddar(8, x0)
	nv, _ := placement.NewNaive(8, x0)
	rs, _ := placement.NewReshuffle(8, x0)
	rr, _ := placement.NewRoundRobin(8)
	dir, _ := placement.NewDirectory(8, prng.NewSplitMix64(5))
	ch, _ := placement.NewConsistent(8, 128)
	for _, s := range []placement.Strategy{sc, nv, rs, rr, dir, ch} {
		s.AddDisks(2)
		s.RemoveDisks(3)
		s.AddDisks(1)
		s.RemoveDisks(0)
		b.Run(s.Name(), func(b *testing.B) {
			b.ReportAllocs()
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += s.Disk(placement.BlockRef{Seed: uint64(i % 64), Index: uint64(i % 4096)})
			}
			if sink == -1 {
				b.Fatal("impossible")
			}
		})
	}
}

// BenchmarkHistoryCodec measures the operation-log binary codec round trip.
func BenchmarkHistoryCodec(b *testing.B) {
	h := benchHistory(b, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := h.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		var back iscaddar.History
		if err := back.UnmarshalBinary(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPRNG compares the generator families.
func BenchmarkPRNG(b *testing.B) {
	sources := map[string]prng.Source{
		"splitmix64":     prng.NewSplitMix64(1),
		"xorshift64star": prng.NewXorshift64Star(1),
		"pcg32":          prng.NewPCG32(1),
		"lcg64":          prng.NewLCG64(1),
	}
	for name, src := range sources {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink += src.Next()
			}
			if sink == 1 {
				b.Fatal("impossible")
			}
		})
	}
}

// benchName formats a sub-benchmark name.
func benchName(prefix string, v int) string {
	const digits = "0123456789"
	if v == 0 {
		return prefix + "=0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = digits[v%10]
		v /= 10
	}
	return prefix + "=" + string(buf[i:])
}
