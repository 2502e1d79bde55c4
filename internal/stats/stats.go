// Package stats implements the descriptive statistics and uniformity tests
// used by the SCADDAR evaluation: the coefficient of variation of per-disk
// load (the paper's Section 5 metric), the unfairness coefficient of a load
// distribution (Section 4.3), chi-square goodness-of-fit tests against the
// uniform distribution, and simple fixed-width histograms.
//
// Everything is implemented from scratch on top of the math package so the
// library has no dependencies beyond the standard library.
package stats

import (
	"errors"
	"math"
	"sort"
)

// Summary holds one-pass descriptive statistics of a sample.
type Summary struct {
	N      int     // number of observations
	Mean   float64 // arithmetic mean
	Std    float64 // sample standard deviation (n-1 denominator)
	StdPop float64 // population standard deviation (n denominator)
	Min    float64
	Max    float64
	Sum    float64
}

// Summarize computes descriptive statistics of xs. It returns a zero Summary
// for an empty sample. The variance is computed with Welford's algorithm for
// numerical stability.
func Summarize(xs []float64) Summary {
	var s Summary
	if len(xs) == 0 {
		return s
	}
	s.N = len(xs)
	s.Min = xs[0]
	s.Max = xs[0]
	var mean, m2 float64
	for i, x := range xs {
		s.Sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
		delta := x - mean
		mean += delta / float64(i+1)
		m2 += delta * (x - mean)
	}
	s.Mean = mean
	s.StdPop = math.Sqrt(m2 / float64(s.N))
	if s.N > 1 {
		s.Std = math.Sqrt(m2 / float64(s.N-1))
	}
	return s
}

// CoV returns the coefficient of variation (population standard deviation
// divided by the mean) of xs — the load-balance metric of the paper's
// Section 5: "the standard deviation divided by the average number of blocks
// across all disks". It returns 0 for an empty sample and +Inf when the mean
// is zero but the sample is not identically zero.
func CoV(xs []float64) float64 {
	s := Summarize(xs)
	if s.N == 0 {
		return 0
	}
	if s.Mean == 0 {
		if s.StdPop == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return s.StdPop / s.Mean
}

// CoVInts is CoV for integer counts, the common case of blocks-per-disk.
func CoVInts(counts []int) float64 {
	xs := make([]float64, len(counts))
	for i, c := range counts {
		xs[i] = float64(c)
	}
	return CoV(xs)
}

// Unfairness returns the paper's unfairness coefficient of a load vector:
// (largest load / smallest load) - 1. The paper defines it over *expected*
// loads; applied to an empirical load vector it is the natural plug-in
// estimate. It returns +Inf if the smallest load is zero while the largest
// is not, and an error for an empty vector.
func Unfairness(loads []float64) (float64, error) {
	if len(loads) == 0 {
		return 0, errors.New("stats: unfairness of empty load vector")
	}
	min, max := loads[0], loads[0]
	for _, l := range loads[1:] {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	if min == max {
		return 0, nil
	}
	if min == 0 {
		return math.Inf(1), nil
	}
	return max/min - 1, nil
}

// UnfairnessInts is Unfairness for integer counts.
func UnfairnessInts(counts []int) (float64, error) {
	xs := make([]float64, len(counts))
	for i, c := range counts {
		xs[i] = float64(c)
	}
	return Unfairness(xs)
}

// ChiSquareUniform tests observed category counts against the uniform
// distribution over len(counts) categories. It returns the chi-square
// statistic, the degrees of freedom, and the p-value (probability of a
// statistic at least this large under uniformity). At least two categories
// and a positive total are required.
func ChiSquareUniform(counts []int) (stat float64, dof int, p float64, err error) {
	k := len(counts)
	if k < 2 {
		return 0, 0, 0, errors.New("stats: chi-square needs at least 2 categories")
	}
	total := 0
	for _, c := range counts {
		if c < 0 {
			return 0, 0, 0, errors.New("stats: negative count")
		}
		total += c
	}
	if total == 0 {
		return 0, 0, 0, errors.New("stats: chi-square of empty sample")
	}
	expected := float64(total) / float64(k)
	for _, c := range counts {
		d := float64(c) - expected
		stat += d * d / expected
	}
	dof = k - 1
	p = ChiSquareSurvival(stat, float64(dof))
	return stat, dof, p, nil
}

// ChiSquareSurvival returns P(X >= x) for a chi-square random variable with
// the given degrees of freedom, i.e. the upper tail. It is computed through
// the regularized incomplete gamma function Q(dof/2, x/2).
func ChiSquareSurvival(x, dof float64) float64 {
	if x <= 0 {
		return 1
	}
	return regularizedGammaQ(dof/2, x/2)
}

// regularizedGammaQ computes Q(a, x) = Γ(a, x)/Γ(a), the upper regularized
// incomplete gamma function, with the standard series / continued-fraction
// split (Numerical Recipes §6.2).
func regularizedGammaQ(a, x float64) float64 {
	if x < 0 || a <= 0 {
		return math.NaN()
	}
	if x == 0 {
		return 1
	}
	if x < a+1 {
		return 1 - gammaPSeries(a, x)
	}
	return gammaQContinuedFraction(a, x)
}

// gammaPSeries evaluates P(a,x) by its power series; accurate for x < a+1.
func gammaPSeries(a, x float64) float64 {
	const (
		maxIter = 500
		eps     = 1e-14
	)
	lgA, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < maxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*eps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lgA)
}

// gammaQContinuedFraction evaluates Q(a,x) by Lentz's continued fraction;
// accurate for x >= a+1.
func gammaQContinuedFraction(a, x float64) float64 {
	const (
		maxIter = 500
		eps     = 1e-14
		fpmin   = 1e-300
	)
	lgA, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / fpmin
	d := 1 / b
	h := d
	for i := 1; i <= maxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = b + an/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lgA) * h
}

// Histogram is a fixed-width histogram over [Lo, Hi).
type Histogram struct {
	Lo, Hi   float64
	Counts   []int
	Under    int // observations below Lo
	Over     int // observations at or above Hi
	binWidth float64
}

// NewHistogram creates a histogram with the given bounds and bin count.
//
//unreached:testsupport only its own tests call it (everything else uses obs.Histogram): it goes when they may (CHANGES.md, PR 23)
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if bins <= 0 {
		return nil, errors.New("stats: histogram needs at least one bin")
	}
	if !(lo < hi) {
		return nil, errors.New("stats: histogram bounds must satisfy lo < hi")
	}
	return &Histogram{
		Lo:       lo,
		Hi:       hi,
		Counts:   make([]int, bins),
		binWidth: (hi - lo) / float64(bins),
	}, nil
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int((x - h.Lo) / h.binWidth)
		if i >= len(h.Counts) { // guard against floating-point edge at Hi
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// Total returns the number of observations recorded, including out-of-range
// ones.
func (h *Histogram) Total() int {
	n := h.Under + h.Over
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Quantile returns the q-th sample quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (type-7, the default of R and
// NumPy). It reports an error for an empty sample or q outside [0,1].
//
//unreached:testsupport see NewHistogram
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("stats: quantile of empty sample")
	}
	if q < 0 || q > 1 {
		return 0, errors.New("stats: quantile level outside [0,1]")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}
