package main

import (
	"bufio"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckAllocs drives the -allocs-against gate: at or under the capture
// passes; one allocation over, a benchmark the capture lacks, or input
// without -benchmem all fail.
func TestCheckAllocs(t *testing.T) {
	capture := filepath.Join(t.TempDir(), "BENCH.json")
	if err := os.WriteFile(capture, []byte(`{
  "BenchmarkLookup/snapshot": {"ns_op":22.85,"bytes_op":0,"allocs_op":0},
  "BenchmarkBuildSnapshot/pending=25k": {"ns_op":2974,"bytes_op":5600,"allocs_op":12},
  "BenchmarkTimingOnly": {"ns_op":5}
}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, stdin string
		want        int
	}{
		{"at and under", `
BenchmarkLookup/snapshot-8            200   14.31 ns/op   0 B/op   0 allocs/op
BenchmarkBuildSnapshot/pending=25k-8  200   451.4 ns/op   472 B/op   7 allocs/op  3.1 extra/op
PASS`, 0},
		{"one over", "BenchmarkLookup/snapshot-2  200  14.31 ns/op  16 B/op  1 allocs/op", 1},
		{"not in the capture", "BenchmarkBrandNew-2  200  14.31 ns/op  0 B/op  0 allocs/op", 1},
		{"captured without allocs", "BenchmarkTimingOnly-2  200  14.31 ns/op  0 B/op  0 allocs/op", 1},
		{"no -benchmem", "BenchmarkLookup/snapshot-2  200  14.31 ns/op", 1},
	} {
		results, err := parse(bufio.NewScanner(strings.NewReader(tc.stdin)))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := checkAllocs(results, capture); got != tc.want {
			t.Errorf("%s: exit status %d, want %d", tc.name, got, tc.want)
		}
	}
	if got := checkAllocs(nil, capture+".missing"); got != 1 {
		t.Errorf("missing capture file: exit status %d, want 1", got)
	}
}
