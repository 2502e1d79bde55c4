package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle of vs (mean of the two middles for even n) and 0
// for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantileSorted is the nearest-rank quantile of an ascending slice.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// tailLevels are the percentiles a report may quote, lowest first.
var tailLevels = []float64{0.90, 0.99, 0.999, 0.9999}

// topPercentile picks the highest level of tailLevels that still has at
// least ten samples beyond it; with fewer than 100 samples there is none and
// ok is false. A tail quoted from fewer than ten samples is one outlier's
// value, not a percentile.
func topPercentile(n int) (q float64, ok bool) {
	for _, l := range tailLevels {
		if float64(n)*(1-l) >= 10-1e-9 {
			q, ok = l, true
		}
	}
	return q, ok
}

// pctLabel renders 0.999 as "p99.9".
func pctLabel(q float64) string {
	return "p" + trimFloat(q*100)
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.4f", v)
	for s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s
}

// dist summarises raw per-operation samples: the median, and the highest
// percentile that has at least ten samples beyond it.
type dist struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	TailQ float64 `json:"tail_q,omitempty"`
	Tail  float64 `json:"tail,omitempty"`
	P99   float64 `json:"p99"`
}

// summarize sorts vs in place.
func summarize(vs []float64) dist {
	sort.Float64s(vs)
	d := dist{N: len(vs), P50: quantileSorted(vs, 0.5), P99: quantileSorted(vs, 0.99)}
	if q, ok := topPercentile(len(vs)); ok {
		d.TailQ, d.Tail = q, quantileSorted(vs, q)
	}
	return d
}

func (d dist) String() string {
	if d.N == 0 {
		return "n=0"
	}
	if d.TailQ == 0 {
		return fmt.Sprintf("p50 %.4g (n=%d, too few samples for a tail)", d.P50, d.N)
	}
	return fmt.Sprintf("p50 %.4g  %s %.4g  (n=%d)", d.P50, pctLabel(d.TailQ), d.Tail, d.N)
}

// quartiles reproduces Python's statistics.quantiles(values, n=4) (the
// default "exclusive" method), which is what the acceptance driver uses for
// run-to-run spread.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vs []float64) float64 {
	q1, _, q3 := quartiles(vs)
	m := median(vs)
	if m == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(m)
}
