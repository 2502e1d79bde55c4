package reorg

import (
	"runtime"
	"testing"

	"scaddar/internal/placement"
	"scaddar/internal/prng"
)

// benchmarkPlan plans one operation over a 128 k-block catalogue enumerated
// the way cm enumerates its own: what a scale-up or scale-down costs between
// the request and the first move. Two workers whatever the machine: the bulk
// sweep's fan-out allocates per worker, and the allocs/op CI gates must not
// depend on the core count of the machine that took the capture.
func benchmarkPlan(b *testing.B, plan func(s *placement.Scaddar, src Source) (*Plan, error)) {
	x0 := placement.NewX0Func(func(seed uint64) prng.Source { return prng.NewSplitMix64(seed) })
	src := universeSource(128, 1024)
	b.Run("128k", func(b *testing.B) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			strat, err := placement.NewScaddar(8, x0)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := plan(strat, src); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkPlanAdd(b *testing.B) {
	benchmarkPlan(b, func(s *placement.Scaddar, src Source) (*Plan, error) { return PlanAddFrom(s, src, 2) })
}

func BenchmarkPlanRemove(b *testing.B) {
	benchmarkPlan(b, func(s *placement.Scaddar, src Source) (*Plan, error) { return PlanRemoveFrom(s, src, 1, 6) })
}
