// Command benchjson converts `go test -bench -benchmem` output on stdin
// into a stable JSON object on stdout: benchmark name → {ns_op, allocs_op,
// bytes_op} (allocs/bytes only when -benchmem printed them). Lines that are
// not benchmark results — package headers, PASS/ok trailers, custom
// b.ReportMetric values — are ignored, so the tool can sit directly behind
// `go test -bench ./...` in the Makefile's bench target.
//
// Names are normalized by stripping the trailing GOMAXPROCS suffix
// (BenchmarkLocate/ops=16-8 → BenchmarkLocate/ops=16) so captures taken on
// machines with different core counts diff cleanly. Keys are emitted sorted
// so the output is byte-stable for a given input.
//
// With -allocs-against FILE it is a gate instead of a converter: every
// benchmark on stdin that reports allocs/op is looked up in FILE (a capture
// this tool wrote) and the command fails when one allocates more per
// operation than the capture says, or is missing from it. Allocation counts,
// unlike timings, repeat exactly, so the comparison needs no tolerance and a
// few hundred iterations are enough (CI runs -benchtime 200x).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// result is one benchmark line's parsed measurements.
type result struct {
	NsOp     float64  `json:"ns_op"`
	BytesOp  *float64 `json:"bytes_op,omitempty"`
	AllocsOp *float64 `json:"allocs_op,omitempty"`
}

// benchLine matches `Benchmark<name>-<procs> <iters> <value> ns/op ...`.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(.*)$`)

// procSuffix is the trailing -<GOMAXPROCS> go test appends to names.
var procSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	against := flag.String("allocs-against", "", "compare allocs/op on stdin with this committed capture instead of printing JSON; exit 1 when any is higher")
	flag.Parse()
	results, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark results on stdin")
		os.Exit(1)
	}
	if *against != "" {
		os.Exit(checkAllocs(results, *against))
	}
	names := sortedNames(results)
	// Emit in sorted key order by building an ordered document by hand;
	// encoding/json would serialize map keys sorted too, but doing it
	// explicitly keeps the two-space indentation stable as well.
	var b strings.Builder
	b.WriteString("{\n")
	for i, name := range names {
		entry, err := json.Marshal(results[name])
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		fmt.Fprintf(&b, "  %q: %s", name, entry)
		if i < len(names)-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	b.WriteString("}\n")
	os.Stdout.WriteString(b.String())
}

// sortedNames returns the benchmark names in the order both modes report them.
func sortedNames(results map[string]result) []string {
	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// checkAllocs is the -allocs-against gate: it returns the exit status.
func checkAllocs(results map[string]result, captureFile string) int {
	data, err := os.ReadFile(captureFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}
	var capture map[string]result
	if err := json.Unmarshal(data, &capture); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", captureFile, err)
		return 1
	}
	checked, failed := 0, 0
	for _, name := range sortedNames(results) {
		got := results[name].AllocsOp
		if got == nil {
			continue // run without -benchmem, or a benchmark that reports none
		}
		checked++
		switch want, ok := capture[name]; {
		case !ok || want.AllocsOp == nil:
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v allocs/op, not in %s (refresh the capture: make bench PR=<n>)\n", name, *got, captureFile)
			failed++
		case *got > *want.AllocsOp:
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v allocs/op, %s has %v\n", name, *got, captureFile, *want.AllocsOp)
			failed++
		}
	}
	if checked == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no allocs/op on stdin (run the benchmarks with -benchmem)")
		return 1
	}
	if failed > 0 {
		return 1
	}
	fmt.Printf("benchjson: allocs/op of %d benchmarks at or under %s\n", checked, captureFile)
	return 0
}

// parse reads benchmark lines from the scanner. A repeated name (the same
// benchmark run in several packages, which go test names identically only
// across -count runs) keeps the last occurrence.
func parse(sc *bufio.Scanner) (map[string]result, error) {
	results := make(map[string]result)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		name := procSuffix.ReplaceAllString(m[1], "")
		fields := strings.Fields(m[2])
		var r result
		seen := false
		// Measurements come as value-unit pairs: `123 ns/op 4 B/op ...`.
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in %q", fields[i], sc.Text())
			}
			switch fields[i+1] {
			case "ns/op":
				r.NsOp, seen = v, true
			case "B/op":
				val := v
				r.BytesOp = &val
			case "allocs/op":
				val := v
				r.AllocsOp = &val
			}
		}
		if seen {
			results[name] = r
		}
	}
	return results, sc.Err()
}
