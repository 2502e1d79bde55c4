package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	iscaddar "scaddar/internal/scaddar"
)

// smallSpec boots a workload with shrunken catalogues at a 300 ms window.
func smallSpec(t *testing.T, workload string) spec {
	return spec{Workload: workload, Seed: 7, Warmup: 50 * time.Millisecond, Window: 300 * time.Millisecond,
		Small: true, Dir: t.TempDir()}
}

// TestSmoke boots every workload end to end and requires that no operation
// fails and every end-to-end metric is reported and non-zero.
func TestSmoke(t *testing.T) {
	for _, wl := range workloads {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			t.Parallel()
			res, err := runInProcess(smallSpec(t, wl.Name))
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%d failed of %d attempted: %v", res.Failed, res.Attempted, res.Failures)
			}
			for _, d := range endToEnd {
				if v := res.Metrics[d.Name]; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want a positive number", d.Name, v)
				}
			}
		})
	}
}

// TestTracedRunRecordsSpans checks that a traced run yields spans with
// parents and self times for the layers the budget names.
func TestTracedRunRecordsSpans(t *testing.T) {
	for workload, want := range map[string][]string{
		"lookup_routed":    {"client.request", "cluster.proxy_read", "gateway.http_read", "cm.snapshot_locate", "scaddar.locate"},
		"lookup_bin_batch": {"client.request", "binproto.encode", "wire+server", "cm.snapshot_locate_batch", "scaddar.locate_batch"},
		"reorg_durable":    {"gateway.round", "cm.tick"},
	} {
		s := smallSpec(t, workload)
		s.Trace = true
		s.TraceOut = filepath.Join(s.Dir, "spans.json")
		res, err := runInProcess(s)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 {
			t.Fatalf("%s: %v", workload, res.Failures)
		}
		data, err := os.ReadFile(s.TraceOut)
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(data, &spans); err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]bool)
		for _, sp := range spans {
			seen[sp.Name] = true
			if sp.End < sp.Start || sp.ID == 0 {
				t.Fatalf("%s: malformed span %+v", workload, sp)
			}
		}
		for _, name := range want {
			if !seen[name] {
				t.Errorf("%s: no %q span among %d", workload, name, len(spans))
			}
		}
	}
}

// The oracle must bite: a corrupted lookup answer, a flipped payload byte
// and a dropped chunk each have to surface as failed operations.
func TestOracleBites(t *testing.T) {
	for _, tc := range []struct{ workload, sabotage, wantIn string }{
		{"lookup_http", "answer", "oracle says"},
		{"lookup_bin_batch", "answer", "batch entry"},
		{"reorg_durable", "answer", "batch entry"},
		{"stream_scaleup", "payload", "does not carry the oracle bytes"},
		{"stream_scaleup", "drop", "arrived where"},
	} {
		s := smallSpec(t, tc.workload)
		s.sabotage = tc.sabotage
		res, err := runInProcess(s)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed == 0 || res.Metrics["failed_frac"] == 0 {
			t.Errorf("%s with sabotage %q: no failed operation", tc.workload, tc.sabotage)
		}
		if !strings.Contains(strings.Join(res.Failures, "\n"), tc.wantIn) {
			t.Errorf("%s with sabotage %q: failures %q do not mention %q", tc.workload, tc.sabotage, res.Failures, tc.wantIn)
		}
	}
}

func TestOracleEpochRule(t *testing.T) {
	objs := makeObjects(3, 4, 300, 64<<10)
	or, err := buildOracle(objs, growthN0, growthHistory, durableScript)
	if err != nil {
		t.Fatal(err)
	}
	or.epoch0 = 40
	for k, op := range durableScript {
		moved := 0
		for b := 0; b < 300; b++ {
			before, after := or.want(k, 1, b), or.preOf[k][or.want(k+1, 1, b)]
			settled, draining := uint64(40+2*k), uint64(41+2*k)
			if !or.check(settled, 1, b, before) || !or.check(draining, 1, b, before) || !or.check(draining, 1, b, after) {
				t.Fatalf("op %d block %d: a legal home was rejected", k, b)
			}
			if before != after {
				moved++
				if or.check(settled, 1, b, after) {
					t.Fatalf("op %d block %d: the post-op home was accepted before the op began", k, b)
				}
			}
			if or.check(draining, 1, b, (before+1)%or.n[k]) && (before+1)%or.n[k] != after {
				t.Fatalf("op %d block %d: a third disk was accepted during the drain", k, b)
			}
		}
		if moved == 0 {
			t.Fatalf("op %d (%v) moved nothing", k, op)
		}
		// RO1: an addition moves count/(N+count) of the blocks; a removal
		// moves exactly the removed disks' share.
		want := 2.0 / 10
		if got := float64(or.optimalMoves(k)) / float64(4*300); math.Abs(got-want) > 0.06 {
			t.Errorf("op %d: moved fraction %.3f, RO1 says about %.3f", k, got, want)
		}
	}
	if or.check(39, 1, 0, or.want(0, 1, 0)) || or.check(40+uint64(2*len(durableScript))+1, 1, 0, or.want(0, 1, 0)) {
		t.Error("an epoch outside the script was accepted")
	}
}

// The fixed history plus reorg_durable's script must stay inside the §4.3
// randomness budget for 64-bit generators.
func TestHistoryWithinBudget(t *testing.T) {
	b, err := iscaddar.NewBudget(64, growthN0)
	if err != nil {
		t.Fatal(err)
	}
	n := growthN0
	ops := 0
	for _, op := range append(append([]scaleOp(nil), growthHistory...), durableScript...) {
		n += op.add - len(op.remove)
		if err := b.Record(n); err != nil {
			t.Fatal(err)
		}
		ops++
	}
	if ops != 18 || len(growthHistory) != 12 || n != 8 {
		t.Fatalf("history: %d ops ending at %d disks", ops, n)
	}
	if u := b.GuaranteedUnfairness(); !(u < 0.01) {
		t.Errorf("guaranteed unfairness %.4f after 18 operations, want under 1%%", u)
	}
}

func TestTopPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		some bool
	}{{0, 0, false}, {99, 0, false}, {100, 0.90, true}, {999, 0.90, true}, {1000, 0.99, true},
		{9999, 0.99, true}, {10000, 0.999, true}, {100000, 0.9999, true}, {5000000, 0.9999, true}} {
		q, ok := topPercentile(tc.n)
		if ok != tc.some || q != tc.q {
			t.Errorf("topPercentile(%d) = %v, %v; want %v, %v", tc.n, q, ok, tc.q, tc.some)
		}
	}
	vs := make([]float64, 1000)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	d := summarize(vs)
	if d.P50 != 500 || d.TailQ != 0.99 || d.Tail != 990 || d.N != 1000 {
		t.Errorf("summarize(1..1000) = %+v", d)
	}
	if got := pctLabel(0.999); got != "p99.9" {
		t.Errorf("pctLabel(0.999) = %q", got)
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if m := median([]float64{9, 1, 5}); m != 5 {
		t.Errorf("median of three = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of four = %v", m)
	}
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 30.999…]
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if math.Abs(q1-3.5) > 1e-9 || math.Abs(q2-13.5) > 1e-9 || math.Abs(q3-31) > 1e-9 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	if s := spread([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}); math.Abs(s-27.5/13.5) > 1e-9 {
		t.Errorf("spread = %v", s)
	}
}

// The gated rate is a whole-window total: a second in which the system
// stalled must lower it, which a quartile of per-second rates would not.
func TestRateCountsStalledSeconds(t *testing.T) {
	start := time.Now()
	w := window{start: start, end: start.Add(4 * time.Second)}
	sm := newSamples(w, 8)
	for sec, ops := range []int{1000, 1000, 0, 1000} {
		if ops > 0 {
			at := start.Add(time.Duration(sec)*time.Second + time.Millisecond)
			sm.add(at, at.Add(time.Microsecond), ops)
		}
	}
	if got := mergeSamples(w, sm).rate(w); got != 750 {
		t.Errorf("rate = %v, want 750: 3,000 operations in a 4 s window", got)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "cpu_us_per_op", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c * 1.005, c * 0.995} }
	wide := func(c float64) []float64 { return []float64{c * 0.7, c, c * 1.3, c * 1.2, c * 0.8} }
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"flat", lower, tight(100), tight(101), verdictUnchanged},
		{"slower", lower, tight(100), tight(115), verdictRegressed},
		{"faster", lower, tight(100), tight(85), verdictImproved},
		{"throughput down", higher, tight(1000), tight(850), verdictRegressed},
		{"throughput up", higher, tight(1000), tight(1200), verdictImproved},
		{"noise hides it", lower, wide(100), wide(115), verdictUnresolved},
		{"noisy but flat", lower, wide(100), wide(100), verdictUnresolved},
		{"noisy yet every run worse", lower, wide(100), wide(300), verdictRegressed},
	} {
		if got := judge(tc.d, tc.a, tc.b).Verdict; got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale float64, failed int64) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 5; i++ {
			jitter := 1 + 0.004*float64(i-2)
			m := map[string]float64{"setup_s": 0.5 * jitter, "ops_per_s": 1000 * jitter / scale, "mem_held_mib": 50 * jitter}
			f := false
			if err := appendLine(path, runLine{Workload: "lookup_http", Seed: 1, Trace: &f, Correct: failed == 0,
				Attempted: 1000, Failed: failed, Metrics: pick(endToEnd, m)}); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base, same, slow, broken := write("a.jsonl", 1, 0), write("b.jsonl", 1.01, 0), write("c.jsonl", 1.5, 0), write("d.jsonl", 1, 3)
	var out, errOut bytes.Buffer
	if code := compareFiles(base, same, false, &out, &errOut); code != 0 {
		t.Errorf("same commit: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	out.Reset()
	if code := compareFiles(base, slow, true, &out, &errOut); code != 1 || !strings.Contains(out.String(), "lookup_http,ops_per_s,5,5,") ||
		!strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("50%% slower: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(base, broken, false, &out, &errOut); code != 1 || !strings.Contains(out.String(), "FAILED OPERATIONS UP") {
		t.Errorf("more failures: exit %d\n%s", code, out.String())
	}
}

// BENCHMARK.json is the declaration; metrics.go is what the program prints.
// They must agree, and the declaration must keep to the contract's shape.
func TestBenchmarkJSONAgrees(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) || len(decl.EndToEnd) != len(endToEnd) || len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d workloads, %d end-to-end and %d per-layer metrics; the program has %d, %d and %d",
			len(decl.Workloads), len(decl.EndToEnd), len(decl.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q differs from the program's %q (or its why is over 200 characters)", i, w.Name, workloads[i].Name)
		}
	}
	haveSetup := false
	for i, m := range decl.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound || m.Bound > 0.25 || m.Bound <= 0 {
			t.Errorf("end-to-end metric %d: %+v differs from the program's %+v", i, m, d)
		}
		haveSetup = haveSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !haveSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	seen := make(map[string]bool)
	for i, m := range decl.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || len(m.Name) > 64 || len(m.Unit) > 16 || seen[m.Name] {
			t.Errorf("per-layer metric %d: %+v differs from the program's %+v", i, m, d)
		}
		seen[m.Name] = true
	}
	if len(decl.PerLayer) > 128 || len(decl.EndToEnd) > 16 || len(decl.Workloads) > 8 || decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Error("BENCHMARK.json is outside the contract's limits")
	}
}
