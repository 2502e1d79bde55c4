// Command bench is the repository's one performance instrument: it boots the
// real stack in process from the exported constructors, drives it over
// loopback sockets from a pre-generated, seeded request stream, checks every
// answer against an oracle of its own, and prints every metric by name with
// its unit. README.md in this directory defines each metric and workload.
//
//	go run -C bench scaddar/bench -seed 1                       every workload, 3 repetitions, the ledger
//	go run -C bench scaddar/bench -seed 1 -trace 1              plus per-layer metrics, spans and five budget tables
//	go run -C bench scaddar/bench -workload W -seed N -seconds S -trace 0|1   one run, one JSON line (BENCHMARK.json's command)
//	go run -C bench scaddar/bench -compare A.jsonl B.jsonl      the regression gate
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// scratchRoot is where runs keep journals, segment stores and span files:
// inside the checkout, removed when the run ends.
const scratchRoot = ".bench_tmp"

// warmup precedes every measured window and is excluded from it; the full
// report runs every workload reps times, interleaved round-robin. Neither is
// a flag: two ledgers taken with different values would not compare.
const (
	warmup = time.Second
	reps   = 3
)

// A driver run sets the workload up several times and reports the median
// setup_s: once in the measuring child and the rest in children that stop
// when set-up is done. Three times at least, and for set-ups of tens of
// milliseconds, which are noisy and cheap to repeat, until they add up to
// setupBudget, five times at most: every extra set-up of stream_scaleup
// writes 257 MiB, which the runs after it share the page cache and the
// disk with.
const (
	minSetupSamples = 3
	maxSetupSamples = 5
	setupBudget     = 1.0 // seconds
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run one workload and print one JSON result line (default: all workloads, full report)")
		seed     = fs.Uint64("seed", 1, "seed of the generated inputs")
		seconds  = fs.Float64("seconds", 0, "measured window per run (default 6 for the full report)")
		trace    = fs.Int("trace", 0, "1 = traced run: per-layer metrics, spans, latency budgets")
		out      = fs.String("out", "", "append each run's metrics to this JSON-lines file (input of -compare)")
		traceOut = fs.String("trace-out", "", "write the traced run's spans here (default: .bench_tmp/spans.<workload>.json with the full report, discarded with -workload)")
		compare  = fs.Bool("compare", false, "compare two -out files: bench -compare A.jsonl B.jsonl")
		csv      = fs.Bool("csv", false, "with -compare, print CSV")
		declare  = fs.Bool("declare", false, "print BENCHMARK.json as this program defines it (go run … -declare > ../BENCHMARK.json)")
		child    = fs.Bool("child", false, "internal: run one workload in this process and print its result")
		setup    = fs.Bool("setup-only", false, "internal: stop after set-up")
		probes   = fs.Bool("probes", false, "internal: run the per-layer probes instead of a workload")
		dir      = fs.String("dir", "", "internal: scratch directory")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *declare:
		return printDeclaration(stdout)
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), *csv, stdout, stderr)
	case *child:
		s := spec{Workload: *workload, Seed: *seed, Warmup: warmup, Window: secs(*seconds), Trace: *trace != 0,
			SetupOnly: *setup, Probes: *probes, Dir: *dir, TraceOut: *traceOut}
		res, err := runInProcess(s)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", s.Workload, err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(res); err != nil {
			return 1
		}
		return 0
	case *workload != "":
		if workloadByName(*workload) == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		if *seconds <= 0 {
			*seconds = 10
		}
		return driverRun(*workload, *seed, secs(*seconds), *trace != 0, *out, *traceOut, stdout, stderr)
	default:
		if *seconds <= 0 {
			*seconds = 6
		}
		return fullReport(*seed, secs(*seconds), *trace != 0, *out, *traceOut, stdout, stderr)
	}
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// runInProcess runs one workload here and now. It is the body of a child
// process and what the tests call directly.
func runInProcess(s spec) (*result, error) {
	if s.Dir == "" {
		return nil, errors.New("no scratch directory")
	}
	res := newResult(s)
	if s.Probes {
		p, err := runProbes(s, s.Dir)
		if err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		res.Metrics = p
		return res, nil
	}
	wl := workloadByName(s.Workload)
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q", s.Workload)
	}
	var rec *recorder
	if s.Trace {
		rec = newRecorder()
	}
	t0 := time.Now()
	setupS := 0.0
	if err := wl.run(s, rec, res, func() { setupS = time.Since(t0).Seconds() }); err != nil {
		return nil, err
	}
	res.Metrics["setup_s"] = setupS
	if rec != nil && !s.SetupOnly {
		res.Metrics["trace.spans"] = float64(len(rec.spans))
		for name, us := range rec.selfTimes() {
			res.Metrics["span."+name+".self_us"] = us
		}
		for name, us := range rec.selfMeans("gateway.round") {
			res.Metrics["span."+name+".mean_self_us"] = us
		}
		if err := rec.write(s.TraceOut); err != nil {
			return nil, err
		}
	}
	return res, nil
}

var childSeq int

// runChild re-executes this binary for one run, so the run's CPU time and
// peak RSS are its own and no pool, heap or catalogue state leaks from one
// run into the next.
func runChild(s spec, stderr io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return nil, err
	}
	childSeq++
	label := s.Workload
	if s.Probes {
		label = "probes"
	}
	dir, err := os.MkdirTemp(scratchRoot, fmt.Sprintf("%s-%d-", label, childSeq))
	if err != nil {
		return nil, err
	}
	defer func() {
		_ = os.RemoveAll(dir)
		_ = os.Remove(scratchRoot) // succeeds only when empty
	}()
	args := []string{"-child", "-workload", s.Workload, "-seed", fmt.Sprint(s.Seed),
		"-seconds", fmt.Sprint(s.Window.Seconds()), "-dir", dir}
	if s.Trace {
		args = append(args, "-trace", "1")
		if s.TraceOut != "" {
			args = append(args, "-trace-out", s.TraceOut)
		}
	}
	if s.SetupOnly {
		args = append(args, "-setup-only")
	}
	if s.Probes {
		args = append(args, "-probes")
	}
	cmd := exec.Command(exe, args...)
	var outBuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &outBuf, stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %w", label, err)
	}
	var res result
	if err := json.Unmarshal(outBuf.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("%s child: bad result: %w", label, err)
	}
	return &res, nil
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runLine is the driver's result line; Workload, Seed and Trace are added
// only in -out files.
type runLine struct {
	Workload  string                 `json:"workload,omitempty"`
	Seed      uint64                 `json:"seed,omitempty"`
	Trace     *bool                  `json:"trace,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func pick(defs []metricDef, from map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: from[d.Name], Unit: d.Unit}
	}
	return out
}

func appendLine(path string, line runLine) error {
	if path == "" {
		return nil
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	data, _ := json.Marshal(line)
	_, err = f.Write(append(data, '\n'))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func reportFailures(stderr io.Writer, res *result) {
	for _, f := range res.Failures {
		fmt.Fprintf(stderr, "bench: %s: FAILED CHECK: %s\n", res.Workload, f)
	}
}

// driverRun is one run of one workload, as BENCHMARK.json's command: the
// end-to-end metrics untraced, or the per-layer metrics from the probes and
// an untraced and a traced half-window run of the same seed.
func driverRun(workload string, seed uint64, window time.Duration, traced bool, out, traceOut string, stdout, stderr io.Writer) int {
	base := spec{Workload: workload, Seed: seed, Window: window}
	line := runLine{Workload: workload, Seed: seed, Trace: &traced}
	if !traced {
		res, err := runChild(base, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		setups := []float64{res.Metrics["setup_s"]}
		spent := setups[0]
		only := base
		only.SetupOnly = true
		for len(setups) < minSetupSamples || (len(setups) < maxSetupSamples && spent < setupBudget) {
			r, err := runChild(only, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
			setups = append(setups, r.Metrics["setup_s"])
			spent += r.Metrics["setup_s"]
		}
		res.Metrics["setup_s"] = median(setups)
		reportFailures(stderr, res)
		line.Correct, line.Attempted, line.Failed = res.Failed == 0, res.Attempted, res.Failed
		line.Metrics = pick(endToEnd, res.Metrics)
	} else {
		probes, err := runChild(spec{Seed: seed, Probes: true}, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		u, t, b, err := tracedPair(base, window/2, traceOut, probes.Metrics, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		reportFailures(stderr, u)
		reportFailures(stderr, t)
		printBudget(stderr, workload, b)
		line.Correct, line.Attempted, line.Failed = u.Failed+t.Failed == 0, u.Attempted+t.Attempted, u.Failed+t.Failed
		line.Metrics = pick(perLayer, layerMetrics(u, t, probes.Metrics, b))
	}
	if err := appendLine(out, line); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	line.Workload, line.Seed, line.Trace = "", 0, nil
	data, _ := json.Marshal(line)
	fmt.Fprintf(stdout, "%s\n", data)
	return 0
}

// tracedPair runs the workload untraced and then traced on the same seed,
// and builds the budget from the two and the probes' baselines.
func tracedPair(base spec, window time.Duration, traceOut string, probes map[string]float64, stderr io.Writer) (u, t *result, b budget, err error) {
	base.Window = window
	if u, err = runChild(base, stderr); err != nil {
		return nil, nil, budget{}, err
	}
	tr := base
	tr.Trace = true
	if traceOut != "" {
		if tr.TraceOut, err = filepath.Abs(traceOut); err != nil {
			return nil, nil, budget{}, err
		}
	}
	if t, err = runChild(tr, stderr); err != nil {
		return nil, nil, budget{}, err
	}
	return u, t, buildBudget(base.Workload, u, t, probes), nil
}

// layerMetrics merges the probes and a traced pair into the per-layer
// ledger: spans from the traced run, counts and workload-specific end-to-end
// figures from the untraced one (end-to-end numbers are never taken with
// tracing on).
func layerMetrics(u, t *result, probes map[string]float64, b budget) map[string]float64 {
	m := make(map[string]float64, len(probes)+len(t.Metrics)+len(u.Metrics))
	for k, v := range probes {
		m[k] = v
	}
	for k, v := range t.Metrics {
		m[k] = v
	}
	for k, v := range u.Metrics {
		m[k] = v
	}
	m["trace.spans"] = t.Metrics["trace.spans"]
	m["e2e.failed_frac"] = float64(u.Failed+t.Failed) / float64(max(u.Attempted+t.Attempted, 1))
	if base := u.Metrics["ops_per_s"]; base > 0 {
		m["trace.overhead_frac"] = (base - t.Metrics["ops_per_s"]) / base
	}
	m["budget.sum_us"] = b.sum()
	m["budget.end_to_end_us"] = b.EndToEndUS
	m["budget.unexplained_frac"] = b.Unexplained
	return m
}

// buildBudget lays a workload's layer self times against its untraced
// end-to-end figure: per request on the lookup workloads (against the
// median latency), per round on the paced ones (against the mean round).
func buildBudget(workload string, u, t *result, probes map[string]float64) budget {
	self := func(name string) float64 { return t.Metrics["span."+name+".self_us"] }
	mean := func(name string) float64 { return t.Metrics["span."+name+".mean_self_us"] }
	row := func(layer string, us float64, source string) budgetRow {
		return budgetRow{Layer: layer, SelfUS: us, Source: source}
	}
	var rows []budgetRow
	switch workload {
	case "lookup_http", "lookup_routed":
		rows = append(rows,
			row("scaddar", self("scaddar.locate"), "shadow span scaddar.locate"),
			row("cm", self("cm.snapshot_locate"), "shadow span cm.snapshot_locate − child"),
			row("gateway", self("gateway.http_read"), "span around Handler().ServeHTTP − child"))
		if workload == "lookup_routed" {
			rows = append(rows, row("cluster", self("cluster.proxy_read"), "span around Router.Handler().ServeHTTP − shard span (the proxy hop)"))
		}
		rows = append(rows, row("transport", self("client.request"), "client span − server span: socket, net/http, client codec"))
		b := makeBudget(rows, u.Metrics["e2e.lookup_p50_us"])
		b.Baseline, b.BaselineName = probes["baseline.http_echo_rtt_us"], "baseline.http_echo_rtt_us"
		return b
	case "lookup_bin_batch":
		rows = append(rows,
			row("scaddar", self("scaddar.locate_batch"), "shadow span scaddar.locate_batch"),
			row("cm", self("cm.snapshot_locate_batch"), "shadow span cm.snapshot_locate_batch − child"),
			row("binproto", self("binproto.encode")+self("binproto.decode"), "client-side encode + decode spans"),
			row("transport", self("wire+server"), "write → reply span − child: socket plus the server-side codec"))
		b := makeBudget(rows, u.Metrics["e2e.lookup_p50_us"])
		b.Baseline, b.BaselineName = probes["baseline.tcp_echo_rtt_us"], "baseline.tcp_echo_rtt_us"
		return b
	default:
		rows = append(rows,
			row("cm.tick+dataplane", mean("cm.tick"), "span around Server.Tick in a traced round: plan, segment reads, CRC, deliver, migrate"),
			row("cm.build_snapshot", mean("cm.build_snapshot"), "shadow span, rounds of a drain only"),
			row("cm.locator_export", mean("cm.locator_export"), "shadow span of the wire-format republish, rounds of a drain only"),
			row("store.sync", u.Metrics["store.fsync_ms"]*u.Metrics["store.syncs_per_round"]*1e3, "store_fsync_seconds over the untraced window, per round"))
		return makeBudget(rows, u.Metrics["gateway.round_busy_ms"]*1e3)
	}
}

func printBudget(w io.Writer, workload string, b budget) {
	unit := "request"
	if workload == "stream_scaleup" || workload == "reorg_durable" {
		unit = "round"
	}
	fmt.Fprintf(w, "\nlatency budget: %s (µs per %s)\n", workload, unit)
	fmt.Fprintf(w, "  %-18s %12s  %s\n", "layer", "self µs", "from")
	for _, r := range b.Rows {
		fmt.Fprintf(w, "  %-18s %12.2f  %s\n", r.Layer, r.SelfUS, r.Source)
	}
	fmt.Fprintf(w, "  %-18s %12.2f\n", "sum", b.sum())
	fmt.Fprintf(w, "  %-18s %12.2f  (untraced)\n", "end to end", b.EndToEndUS)
	if b.BaselineName != "" {
		fmt.Fprintf(w, "  %-18s %12.2f  (%s: a bare echo of the same sizes, two callers, for comparison with transport)\n", "bare socket", b.Baseline, b.BaselineName)
	}
	flag := ""
	if b.Unexplained > 0.25 || b.Unexplained < -0.25 {
		flag = "   <-- above 0.25: the rows do not account for the figure"
	}
	fmt.Fprintf(w, "  %-18s %12.3f%s\n", "unexplained_frac", b.Unexplained, flag)
	fmt.Fprintf(w, "  largest row: %s\n", b.largest())
}

// fsType names the filesystem under dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown (not built from a git checkout)"
}

// fullReport runs every workload reps times, interleaved round-robin, and
// prints the ledger: the median of the repetitions for every metric, with
// units and sample counts.
func fullReport(seed uint64, window time.Duration, traced bool, out, traceOut string, stdout, stderr io.Writer) int {
	wd, _ := os.Getwd()
	fmt.Fprintf(stdout, "bench: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), seed)
	fmt.Fprintf(stdout, "bench: scratch %s on %s — reads come from the page cache and fsync may be cheap: latencies are this sandbox's, not a device's\n",
		filepath.Join(wd, scratchRoot), fsType(wd))
	fmt.Fprintf(stdout, "bench: %d repetitions × %d workloads, %v warm-up + %v window each, round-robin\n\n", reps, len(workloads), warmup, window)
	start := time.Now()
	runs := make(map[string][]*result)
	falseV := false
	for rep := 0; rep < reps; rep++ {
		for _, wl := range workloads {
			res, err := runChild(spec{Workload: wl.Name, Seed: seed, Window: window}, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
			reportFailures(stderr, res)
			runs[wl.Name] = append(runs[wl.Name], res)
			line := runLine{Workload: wl.Name, Seed: seed, Trace: &falseV, Correct: res.Failed == 0,
				Attempted: res.Attempted, Failed: res.Failed, Metrics: pick(endToEnd, res.Metrics)}
			if err := appendLine(out, line); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
		}
	}
	failed := false
	for _, wl := range workloads {
		rs := runs[wl.Name]
		fmt.Fprintf(stdout, "== %s ==\n", wl.Name)
		printLedger(stdout, rs)
		for _, r := range rs {
			failed = failed || r.Failed > 0
		}
	}
	fmt.Fprintf(stdout, "untraced: %d runs in %v\n", reps*len(workloads), time.Since(start).Round(time.Second))
	if traced {
		// The probes run against fixtures of their own, not a workload's
		// state: once per invocation, in a child of their own.
		probes, err := runChild(spec{Seed: seed, Probes: true}, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "\n== per-layer probes (fixtures, the same under every workload) ==\n")
		for _, d := range perLayer {
			if v, ok := probes.Metrics[d.Name]; ok {
				fmt.Fprintf(stdout, "  %-42s %14.4f %s\n", d.Name, v, d.Unit)
			}
		}
		if traceOut == "" {
			traceOut = filepath.Join(scratchRoot, "spans.json")
		}
		for _, wl := range workloads {
			// One span file per workload, next to the scratch directories
			// unless -trace-out names another place.
			to := strings.TrimSuffix(traceOut, ".json") + "." + wl.Name + ".json"
			u, t, b, err := tracedPair(spec{Workload: wl.Name, Seed: seed}, window, to, probes.Metrics, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
			reportFailures(stderr, t)
			failed = failed || u.Failed+t.Failed > 0
			m := layerMetrics(u, t, probes.Metrics, b)
			fmt.Fprintf(stdout, "\n== %s: per-layer metrics (traced run, %d spans) ==\n", wl.Name, int(m["trace.spans"]))
			for _, d := range perLayer {
				if _, probe := probes.Metrics[d.Name]; !probe {
					fmt.Fprintf(stdout, "  %-42s %14.4f %s\n", d.Name, m[d.Name], d.Unit)
				}
			}
			printBudget(stdout, wl.Name, b)
			fmt.Fprintf(stdout, "  trace_overhead_frac %.4f   budget_unexplained_frac %.4f   spans in %s\n", m["trace.overhead_frac"], b.Unexplained, to)
			tv := true
			line := runLine{Workload: wl.Name, Seed: seed, Trace: &tv, Correct: u.Failed+t.Failed == 0,
				Attempted: u.Attempted + t.Attempted, Failed: u.Failed + t.Failed, Metrics: pick(perLayer, m)}
			if err := appendLine(out, line); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
		}
	}
	fmt.Fprintf(stdout, "\ntotal %v\n", time.Since(start).Round(time.Second))
	if failed {
		fmt.Fprintln(stdout, "bench: FAILED OPERATIONS — see stderr")
		return 1
	}
	return 0
}

// printLedger prints the median over repetitions of every metric a
// workload's runs produced: the bounded end-to-end set first, then the
// workload's own figures, with sample counts for the distributions.
func printLedger(w io.Writer, rs []*result) {
	val := func(name string) (float64, bool) {
		var vs []float64
		for _, r := range rs {
			if v, ok := r.Metrics[name]; ok {
				vs = append(vs, v)
			}
		}
		return median(vs), len(vs) > 0
	}
	for _, d := range endToEnd {
		v, _ := val(d.Name)
		fmt.Fprintf(w, "  %-28s %14.4f %-6s (median of %d)\n", d.Name, v, d.Unit, len(rs))
	}
	var extra []string
	for name := range rs[0].Metrics {
		if defByName(endToEnd, name) == nil && defByName(perLayer, name) != nil {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		v, _ := val(name)
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", name, v, defByName(perLayer, name).Unit)
	}
	var att, failed int64
	for _, r := range rs {
		att += r.Attempted
		failed += r.Failed
	}
	fmt.Fprintf(w, "  %-28s %14.6f        (%d failed of %d attempted)\n", "failed_frac", float64(failed)/float64(max(att, 1)), failed, att)
	last := rs[len(rs)-1]
	names := make([]string, 0, len(last.Dists))
	for n := range last.Dists {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %s\n", n, last.Dists[n])
	}
	fmt.Fprintln(w)
}
