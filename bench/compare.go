package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Verdicts of one (workload, metric) row.
const (
	verdictUnchanged  = "unchanged"
	verdictImproved   = "improved"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved (spread > bound)"
)

// side is one set of runs of one commit.
type side struct {
	values map[string]map[string][]float64 // workload → metric → one value per run
	failed map[string]float64              // workload → failed / attempted over the set
}

func readSide(path string) (*side, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s := &side{values: make(map[string]map[string][]float64), failed: make(map[string]float64)}
	att, bad := make(map[string]int64), make(map[string]int64)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var l runLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if l.Workload == "" || (l.Trace != nil && *l.Trace) {
			continue // end-to-end metrics are only ever taken untraced
		}
		if s.values[l.Workload] == nil {
			s.values[l.Workload] = make(map[string][]float64)
		}
		for name, v := range l.Metrics {
			s.values[l.Workload][name] = append(s.values[l.Workload][name], v.Value)
		}
		att[l.Workload] += l.Attempted
		bad[l.Workload] += l.Failed
	}
	for w, a := range att {
		s.failed[w] = float64(bad[w]) / float64(max(a, 1))
	}
	return s, sc.Err()
}

// compareRow is one line of the comparison.
type compareRow struct {
	Workload, Metric string
	NA, NB           int
	MedianA, MedianB float64
	// Worse is the relative change in the direction that counts as worse:
	// positive means B is worse than A.
	Worse            float64
	SpreadA, SpreadB float64
	Bound            float64
	Verdict          string
}

// judge applies the regression rule to one metric: B's median may not be
// worse than A's by more than the bound. Where either side's own
// run-to-run spread is wider than the bound the difference cannot be told
// from noise, and the row is unresolved — unless every run of one side
// beats every run of the other, which no spread explains away.
func judge(d metricDef, a, b []float64) compareRow {
	r := compareRow{Metric: d.Name, NA: len(a), NB: len(b), MedianA: median(a), MedianB: median(b),
		SpreadA: spread(a), SpreadB: spread(b), Bound: d.Bound, Verdict: verdictUnchanged}
	if r.MedianA != 0 {
		r.Worse = (r.MedianB - r.MedianA) / r.MedianA
		if d.Better == "higher" {
			r.Worse = -r.Worse
		}
	}
	worse := func(x, y float64) bool { // x is worse than y
		if d.Better == "higher" {
			return x < y
		}
		return x > y
	}
	dominates := func(xs, ys []float64) bool { // every x worse than every y
		for _, x := range xs {
			for _, y := range ys {
				if !worse(x, y) {
					return false
				}
			}
		}
		return len(xs) > 0 && len(ys) > 0
	}
	noisy := r.SpreadA > d.Bound || r.SpreadB > d.Bound
	switch {
	case r.Worse > d.Bound && (!noisy || dominates(b, a)):
		r.Verdict = verdictRegressed
	case -r.Worse > d.Bound && (!noisy || dominates(a, b)):
		r.Verdict = verdictImproved
	case noisy:
		r.Verdict = verdictUnresolved
	}
	return r
}

// compareSides judges every (workload, end-to-end metric) pair both sides
// report, and failed_frac per workload.
func compareSides(a, b *side) (rows []compareRow, failedUp []string) {
	var names []string
	for w := range a.values {
		if b.values[w] != nil {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	for _, w := range names {
		for _, d := range endToEnd {
			av, bv := a.values[w][d.Name], b.values[w][d.Name]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			r := judge(d, av, bv)
			r.Workload = w
			rows = append(rows, r)
		}
		if b.failed[w] > a.failed[w] {
			failedUp = append(failedUp, fmt.Sprintf("%s: failed_frac %.6f → %.6f", w, a.failed[w], b.failed[w]))
		}
	}
	return rows, failedUp
}

// compareFiles is bench -compare: exit status 1 on any regression or on a
// higher failed_frac.
func compareFiles(pathA, pathB string, csv bool, stdout, stderr io.Writer) int {
	a, err := readSide(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readSide(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	rows, failedUp := compareSides(a, b)
	if len(rows) == 0 {
		fmt.Fprintln(stderr, "bench: the two files share no (workload, metric) pair")
		return 2
	}
	if csv {
		fmt.Fprintln(stdout, "workload,metric,n_a,n_b,median_a,median_b,worse_frac,spread_a,spread_b,bound,verdict")
		for _, r := range rows {
			fmt.Fprintf(stdout, "%s,%s,%d,%d,%g,%g,%.4f,%.4f,%.4f,%.2f,%s\n", r.Workload, r.Metric, r.NA, r.NB,
				r.MedianA, r.MedianB, r.Worse, r.SpreadA, r.SpreadB, r.Bound, r.Verdict)
		}
	} else {
		fmt.Fprintf(stdout, "%-17s %-14s %5s %13s %13s %8s %8s %8s %6s  %s\n",
			"workload", "metric", "runs", "median A", "median B", "worse", "spreadA", "spreadB", "bound", "verdict")
		for _, r := range rows {
			fmt.Fprintf(stdout, "%-17s %-14s %2d/%-2d %13.4f %13.4f %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				r.Workload, r.Metric, r.NA, r.NB, r.MedianA, r.MedianB, 100*r.Worse, 100*r.SpreadA, 100*r.SpreadB, 100*r.Bound, r.Verdict)
		}
	}
	bad := 0
	for _, r := range rows {
		if r.Verdict == verdictRegressed {
			bad++
		}
	}
	for _, f := range failedUp {
		fmt.Fprintf(stdout, "FAILED OPERATIONS UP: %s\n", f)
	}
	if bad > 0 || len(failedUp) > 0 {
		fmt.Fprintf(stdout, "%d regressed, %d workloads with more failed operations\n", bad, len(failedUp))
		return 1
	}
	return 0
}
