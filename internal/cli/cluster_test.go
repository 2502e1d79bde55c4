package cli

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestClusterAndLoadgen boots a 3-shard cluster on ephemeral ports, seeds a
// small library through the router, and runs the load generator in cluster
// mode against it with a mid-run scale-up targeted at shard 0. The run must
// report per-shard read shares, a drained reorganization and, on its -dash
// lines, the rate the router routed at (which no shard's HTTP read counter
// sees: a routed read reaches the shard as a binary lookup).
func TestClusterAndLoadgen(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end cluster test skipped in -short mode")
	}
	opts := clusterOptions{
		addr:         "127.0.0.1:0",
		shards:       3,
		n0:           6,
		objects:      12,
		blocks:       64,
		round:        2 * time.Millisecond,
		shardTimeout: 5 * time.Second,
		opTimeout:    time.Minute,
		probe:        50 * time.Millisecond,
	}
	addrCh := make(chan string, 1)
	stop := make(chan struct{})
	clusterDone := make(chan error, 1)
	var clusterOut syncWriter
	go func() {
		clusterDone <- runCluster(opts, &clusterOut, func(a string) { addrCh <- a }, stop)
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case err := <-clusterDone:
		t.Fatalf("cluster exited early: %v\n%s", err, clusterOut.String())
	case <-time.After(30 * time.Second):
		t.Fatal("cluster never became ready")
	}

	var lgOut strings.Builder
	err := runLoadgen(loadgenOptions{
		addr:     "http://" + addr,
		cluster:  true,
		clients:  4,
		duration: 400 * time.Millisecond,
		zipf:     0.729,
		seed:     7,
		scaleAt:  100 * time.Millisecond,
		add:      2,
		shard:    0,
		perSess:  16,
		dash:     50 * time.Millisecond,
	}, &lgOut)
	if err != nil {
		t.Fatalf("loadgen: %v\n%s", err, lgOut.String())
	}
	out := lgOut.String()
	peak := 0
	for _, m := range regexp.MustCompile(`dash t=\S+ +(\d+) req/s`).FindAllStringSubmatch(out, -1) {
		if rate, _ := strconv.Atoi(m[1]); rate > peak {
			peak = rate
		}
	}
	if peak == 0 {
		t.Errorf("no -dash line shows a non-zero fleet rate:\n%s", out)
	}
	for _, want := range []string{
		"scale-up +2 accepted",
		"reorganization drained in",
		"read latency overall:",
		"per-shard read share",
		"shard 0",
		"skew: hottest shard carries",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("loadgen output missing %q:\n%s", want, out)
		}
	}

	close(stop)
	select {
	case err := <-clusterDone:
		if err != nil {
			t.Fatalf("cluster: %v\n%s", err, clusterOut.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatal("cluster did not shut down")
	}
	cout := clusterOut.String()
	for _, want := range []string{
		"cluster: shard 0 listening on",
		"cluster: 12 objects x 64 blocks seeded",
		"cluster: topology v",
		"cluster: router listening on",
	} {
		if !strings.Contains(cout, want) {
			t.Errorf("cluster output missing %q:\n%s", want, cout)
		}
	}
}

// TestClusterBinLoadgen boots a 2-shard cluster with per-shard binary
// listeners and runs the loadgen -bin comparison in cluster mode: the
// binary phases must discover every shard's binAddr through the router's
// aggregated status, route lookups client-side with the jump hash, and
// finish with zero lookup errors — a lookup routed to the wrong shard
// would come back unknown-object and count as an error.
func TestClusterBinLoadgen(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end cluster test skipped in -short mode")
	}
	opts := clusterOptions{
		addr:         "127.0.0.1:0",
		shards:       2,
		n0:           6,
		objects:      8,
		blocks:       40,
		round:        2 * time.Millisecond,
		shardTimeout: 5 * time.Second,
		opTimeout:    time.Minute,
		probe:        50 * time.Millisecond,
		bin:          true,
	}
	addrCh := make(chan string, 1)
	stop := make(chan struct{})
	clusterDone := make(chan error, 1)
	var clusterOut syncWriter
	go func() {
		clusterDone <- runCluster(opts, &clusterOut, func(a string) { addrCh <- a }, stop)
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case err := <-clusterDone:
		t.Fatalf("cluster exited early: %v\n%s", err, clusterOut.String())
	case <-time.After(30 * time.Second):
		t.Fatal("cluster never became ready")
	}

	var lgOut strings.Builder
	err := runLoadgen(loadgenOptions{
		bin:      true,
		addr:     "http://" + addr,
		cluster:  true,
		clients:  2,
		duration: 250 * time.Millisecond,
		zipf:     0.729,
		seed:     7,
		batch:    16,
	}, &lgOut)
	if err != nil {
		t.Fatalf("loadgen -bin -cluster: %v\n%s", err, lgOut.String())
	}
	out := lgOut.String()
	for _, want := range []string{
		"binary shard-direct (2 shards",
		"bin single:",
		"bin batch16:",
		"vs HTTP:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("loadgen -bin output missing %q:\n%s", want, out)
		}
	}
	if got := strings.Count(out, "errors 0"); got != 3 {
		t.Errorf("expected 3 error-free phases (misrouted lookups count as errors), got %d:\n%s", got, out)
	}

	close(stop)
	select {
	case err := <-clusterDone:
		if err != nil {
			t.Fatalf("cluster: %v\n%s", err, clusterOut.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatal("cluster did not shut down")
	}
	for _, want := range []string{
		"cluster: shard 0 binary lookups on",
		"cluster: shard 1 binary lookups on",
	} {
		if !strings.Contains(clusterOut.String(), want) {
			t.Errorf("cluster output missing %q:\n%s", want, clusterOut.String())
		}
	}
}

// TestClusterBadFlags covers validation without booting anything.
func TestClusterBadFlags(t *testing.T) {
	var out strings.Builder
	if err := runCluster(clusterOptions{shards: -1}, &out, nil, nil); err == nil {
		t.Error("negative shard count accepted")
	}
	if err := runCluster(clusterOptions{shards: 2, dataDir: t.TempDir()}, &out, nil, nil); err == nil {
		t.Error("data-dir without shard-port accepted")
	}
	if err := runCluster(clusterOptions{shards: 0}, &out, nil, nil); err == nil {
		t.Error("empty cluster accepted")
	}
}
