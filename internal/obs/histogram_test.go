package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// naiveQuantile is the reference implementation: sort all raw samples and
// index by rank, the way loadgen used to do it.
func naiveQuantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// bucketFor mirrors Observe's bucket selection for the naive cross-check.
func bucketFor(bounds []float64, v float64) int {
	return sort.SearchFloat64s(bounds, v)
}

func TestHistogramBucketsMatchNaiveCount(t *testing.T) {
	bounds := LatencyBuckets()
	h := MustNewHistogram(bounds)
	rng := rand.New(rand.NewSource(7))
	want := make([]uint64, len(bounds)+1)
	var sum, max float64
	const n = 10000
	for i := 0; i < n; i++ {
		// Log-uniform over the bucket range plus outliers beyond the last
		// bound to exercise the +Inf bucket.
		v := math.Exp(rng.Float64()*math.Log(1e7)) * 1e-6
		h.Observe(v)
		want[bucketFor(bounds, v)]++
		sum += v
		if v > max {
			max = v
		}
	}
	s := h.Snapshot()
	if s.Count != n {
		t.Fatalf("Count = %d, want %d", s.Count, n)
	}
	for i := range want {
		if s.Counts[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, s.Counts[i], want[i])
		}
	}
	if math.Abs(s.Sum-sum) > 1e-6*sum {
		t.Fatalf("Sum = %g, want %g", s.Sum, sum)
	}
	if s.Max != max {
		t.Fatalf("Max = %g, want %g", s.Max, max)
	}
}

func TestHistogramQuantileVsNaive(t *testing.T) {
	bounds := LatencyBuckets()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		h := MustNewHistogram(bounds)
		var samples []float64
		n := 100 + rng.Intn(5000)
		for i := 0; i < n; i++ {
			v := math.Exp(rng.Float64()*math.Log(1e6)) * 1e-5
			samples = append(samples, v)
			h.Observe(v)
		}
		s := h.Snapshot()
		for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 1.0} {
			got := s.Quantile(q)
			want := naiveQuantile(samples, q)
			// The estimate must land within one bucket of the true value:
			// the buckets grow by ×1.8, so accept a factor of 1.8 either way.
			if got < want/1.8-1e-12 || got > want*1.8+1e-12 {
				t.Fatalf("trial %d q=%g: got %g, naive %g (off by more than one bucket)",
					trial, q, got, want)
			}
		}
		if got := s.Quantile(1.0); got > s.Max {
			t.Fatalf("q=1.0 gave %g above max %g", got, s.Max)
		}
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	h := MustNewHistogram([]float64{1, 2, 4})
	if got := h.Snapshot().Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %g, want 0", got)
	}
	h.Observe(3)
	s := h.Snapshot()
	if got := s.Quantile(0.5); got < 2 || got > 3 {
		t.Fatalf("single sample in (2,4] gave %g, want within (2,3]", got)
	}
	// +Inf bucket: quantile falls back to the tracked max.
	h2 := MustNewHistogram([]float64{1})
	h2.Observe(100)
	if got := h2.Snapshot().Quantile(0.99); got != 100 {
		t.Fatalf("+Inf bucket quantile = %g, want 100 (the max)", got)
	}
	// NaN and negative observations clamp to the first bucket.
	h3 := MustNewHistogram([]float64{1, 2})
	h3.Observe(math.NaN())
	h3.Observe(-5)
	s3 := h3.Snapshot()
	if s3.Counts[0] != 2 || s3.Count != 2 {
		t.Fatalf("NaN/negative not clamped: %+v", s3)
	}
}

func TestHistogramMerge(t *testing.T) {
	bounds := SizeBuckets()
	a := MustNewHistogram(bounds)
	b := MustNewHistogram(bounds)
	all := MustNewHistogram(bounds)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		v := float64(rng.Intn(1 << 20))
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		all.Observe(v)
	}
	merged, err := a.Snapshot().Merge(b.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	want := all.Snapshot()
	if merged.Count != want.Count || merged.Sum != want.Sum || merged.Max != want.Max {
		t.Fatalf("merged totals %+v, want %+v", merged, want)
	}
	for i := range want.Counts {
		if merged.Counts[i] != want.Counts[i] {
			t.Fatalf("merged bucket %d = %d, want %d", i, merged.Counts[i], want.Counts[i])
		}
	}
	// Mismatched bounds must refuse to merge.
	c := MustNewHistogram([]float64{1, 2, 3})
	if _, err := a.Snapshot().Merge(c.Snapshot()); err == nil {
		t.Fatal("merge with different bounds succeeded")
	}
	d := MustNewHistogram(append(ExpBuckets(1, 2, 19), 1<<20))
	if _, err := a.Snapshot().Merge(d.Snapshot()); err == nil {
		t.Fatal("merge with same-length different bounds succeeded")
	}
}

func TestHistogramConcurrentWriters(t *testing.T) {
	h := MustNewHistogram(LatencyBuckets())
	const (
		writers = 8
		perW    = 5000
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perW; i++ {
				h.Observe(rng.Float64() * 10)
			}
		}(int64(w))
	}
	// Concurrent snapshots must not trip the race detector either.
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				_ = h.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(done)
	s := h.Snapshot()
	if s.Count != writers*perW {
		t.Fatalf("Count = %d, want %d", s.Count, writers*perW)
	}
	var cells uint64
	for _, c := range s.Counts {
		cells += c
	}
	if cells != s.Count {
		t.Fatalf("bucket cells sum to %d, Count is %d", cells, s.Count)
	}
}

func TestHistogramReset(t *testing.T) {
	h := MustNewHistogram([]float64{1, 2})
	h.Observe(0.5)
	h.Observe(3)
	h.Reset()
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 || s.Max != 0 {
		t.Fatalf("after Reset: %+v", s)
	}
	for i, c := range s.Counts {
		if c != 0 {
			t.Fatalf("bucket %d nonzero after Reset", i)
		}
	}
}

func TestHistogramInvalidBounds(t *testing.T) {
	if _, err := NewHistogram(nil); err == nil {
		t.Fatal("empty bounds accepted")
	}
	if _, err := NewHistogram([]float64{1, 1}); err == nil {
		t.Fatal("non-increasing bounds accepted")
	}
	if _, err := NewHistogram([]float64{2, 1}); err == nil {
		t.Fatal("decreasing bounds accepted")
	}
}

func TestObserveDuration(t *testing.T) {
	h := MustNewHistogram(LatencyBuckets())
	h.ObserveDuration(500 * time.Microsecond)
	s := h.Snapshot()
	if s.Count != 1 || math.Abs(s.Sum-0.0005) > 1e-12 {
		t.Fatalf("ObserveDuration recorded %+v", s)
	}
}

func TestObserveZeroAlloc(t *testing.T) {
	h := MustNewHistogram(LatencyBuckets())
	c := &Counter{}
	g := &Gauge{}
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(0.001)
		c.Inc()
		g.Set(42)
		g.Add(1)
	})
	if allocs != 0 {
		t.Fatalf("hot-path metric ops allocate: %v allocs/run", allocs)
	}
}
