package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"scaddar/internal/obs"
)

// slowHandler wraps a shard handler with a togglable delay, simulating a
// shard that stops answering without closing its socket — the case the
// fan-out deadlines exist for.
type slowHandler struct {
	h     http.Handler
	delay atomic.Int64 // nanoseconds; 0 = passthrough
}

func (s *slowHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if d := time.Duration(s.delay.Load()); d > 0 {
		select {
		case <-r.Context().Done():
			return
		case <-time.After(d):
		}
	}
	s.h.ServeHTTP(w, r)
}

// newSlowCluster boots a 3-shard cluster whose last shard can be made
// arbitrarily slow, with a tight fan-out deadline.
func newSlowCluster(t *testing.T) (*testCluster, *slowHandler) {
	t.Helper()
	cfg := RouterConfig{
		ShardTimeout:  100 * time.Millisecond,
		OpTimeout:     30 * time.Second,
		ProbeInterval: -1,
		Logf:          t.Logf,
	}
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	c := &testCluster{router: r}
	var slow *slowHandler
	for i := 0; i < 3; i++ {
		var sh *testShard
		if i == 2 {
			slow = &slowHandler{}
			sh = newTestShardWith(t, func(h http.Handler) http.Handler {
				slow.h = h
				return slow
			})
		} else {
			sh = newTestShard(t)
		}
		c.shards = append(c.shards, sh)
		if _, _, err := r.AddShard(context.Background(), sh.srv.URL); err != nil {
			t.Fatalf("AddShard: %v", err)
		}
	}
	c.seedObjects(t, 24, 4)
	return c, slow
}

// TestStatusPartialOnSlowShard checks the aggregated status returns within
// the fan-out deadline with the slow shard reported as an error entry and
// the healthy shards' documents intact — no hang, no 500.
func TestStatusPartialOnSlowShard(t *testing.T) {
	c, slow := newSlowCluster(t)
	slow.delay.Store(int64(2 * time.Second))
	start := time.Now()
	rec := c.do(t, http.MethodGet, "/v1/status", nil)
	elapsed := time.Since(start)
	if rec.Code != http.StatusOK {
		t.Fatalf("status: code %d: %s", rec.Code, rec.Body)
	}
	if elapsed > time.Second {
		t.Fatalf("aggregation took %s; per-shard deadline is 100ms", elapsed)
	}
	var out ClusterStatus
	decode(t, rec, &out)
	if len(out.Shards) != 3 {
		t.Fatalf("status lists %d shards, want 3", len(out.Shards))
	}
	if out.Shards[2].Error == "" {
		t.Error("slow shard has no error field")
	}
	if out.Shards[2].Status != nil {
		t.Error("slow shard produced a status document")
	}
	for i := 0; i < 2; i++ {
		if out.Shards[i].Error != "" || len(out.Shards[i].Status) == 0 {
			t.Errorf("healthy shard %d: error=%q status len %d",
				i, out.Shards[i].Error, len(out.Shards[i].Status))
		}
	}
	if out.Cluster.Buckets != 3 {
		t.Errorf("cluster view buckets %d, want 3", out.Cluster.Buckets)
	}
}

// TestMetricsPartialOnSlowShard checks the aggregated Prometheus page
// stays parseable and partial when one shard cannot be scraped.
func TestMetricsPartialOnSlowShard(t *testing.T) {
	c, slow := newSlowCluster(t)
	// Generate some routed traffic first so shard samples exist.
	for id := 0; id < 6; id++ {
		c.readVia(t, id, 0)
	}
	slow.delay.Store(int64(2 * time.Second))
	start := time.Now()
	rec := c.do(t, http.MethodGet, "/v1/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: code %d", rec.Code)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("metrics aggregation took %s", elapsed)
	}
	page := rec.Body.String()
	if !strings.Contains(page, "# shard 2 scrape failed") {
		t.Error("no scrape-failure comment for the slow shard")
	}
	samples, err := obs.ParseText(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatalf("aggregated page does not parse: %v", err)
	}
	ms := obs.NewMetricSet(samples)
	if _, ok := ms.Value("cluster_routed_total"); !ok {
		t.Error("router's own cluster_routed_total missing")
	}
	// Healthy shards' samples carry the spliced shard label.
	foundShard0 := false
	for _, s := range samples {
		if s.Label("shard") == "0" && strings.HasPrefix(s.Name, "gateway_") {
			foundShard0 = true
			break
		}
	}
	if !foundShard0 {
		t.Error("no relabeled gateway_* samples for shard 0")
	}
	for _, s := range samples {
		if s.Label("shard") == "2" && strings.HasPrefix(s.Name, "gateway_") {
			t.Error("slow shard contributed samples; expected none")
			break
		}
	}
}

// TestTracePartialOnSlowShard checks the merged trace dump degrades the
// same way.
func TestTracePartialOnSlowShard(t *testing.T) {
	c, slow := newSlowCluster(t)
	slow.delay.Store(int64(2 * time.Second))
	rec := c.do(t, http.MethodGet, "/v1/trace", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("trace: code %d", rec.Code)
	}
	var out struct {
		Shards []shardTrace `json:"shards"`
	}
	decode(t, rec, &out)
	if len(out.Shards) != 3 {
		t.Fatalf("trace lists %d shards", len(out.Shards))
	}
	if out.Shards[2].Error == "" {
		t.Error("slow shard trace has no error")
	}
	if out.Shards[0].Error != "" || len(out.Shards[0].Trace) == 0 {
		t.Error("healthy shard trace missing")
	}
}

// TestObjectsMergePartial checks the merged object listing serves the
// reachable shards' objects with the failed shard in the errors map, and
// serves the transparent flat-array shape when every shard answers.
func TestObjectsMergePartial(t *testing.T) {
	c, slow := newSlowCluster(t)

	rec := c.do(t, http.MethodGet, "/v1/objects", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("objects: code %d", rec.Code)
	}
	var flat []struct {
		ID int `json:"id"`
	}
	decode(t, rec, &flat)
	if len(flat) != 24 {
		t.Fatalf("merged listing holds %d objects, want 24", len(flat))
	}
	for i := 1; i < len(flat); i++ {
		if flat[i].ID <= flat[i-1].ID {
			t.Fatalf("merged listing not sorted at %d: %d after %d", i, flat[i].ID, flat[i-1].ID)
		}
	}

	slow.delay.Store(int64(2 * time.Second))
	rec = c.do(t, http.MethodGet, "/v1/objects", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("partial objects: code %d", rec.Code)
	}
	var partial struct {
		Objects []struct {
			ID int `json:"id"`
		} `json:"objects"`
		Errors map[string]string `json:"errors"`
	}
	decode(t, rec, &partial)
	if partial.Errors["2"] == "" {
		t.Fatalf("no error entry for the slow shard: %s", rec.Body)
	}
	wantLive := 0
	for id := 0; id < 24; id++ {
		if RouteSlot(id, 3) != 2 {
			wantLive++
		}
	}
	if len(partial.Objects) != wantLive {
		t.Errorf("partial listing holds %d objects, want %d", len(partial.Objects), wantLive)
	}
}

// TestFanoutDeadlineIndependent checks each shard gets its own deadline:
// a slow shard does not consume the budget of the others (they are probed
// concurrently, so total time ≈ one ShardTimeout, not three).
func TestFanoutDeadlineIndependent(t *testing.T) {
	c, slow := newSlowCluster(t)
	slow.delay.Store(int64(2 * time.Second))
	start := time.Now()
	for i := 0; i < 3; i++ {
		rec := c.do(t, http.MethodGet, "/v1/status", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("three aggregations took %s; deadlines are not independent", elapsed)
	}
}

// TestSilentShardLosesLease is the lease of a view: a shard that goes silent
// without closing anything — new requests hang, connections stay open — is
// answered for from its view no longer than a hop to it would have taken to
// time out. The follower's parked poll may still be answered once after the
// stall begins (it was past the stalling wrapper already), so the bound is
// that poll's wait plus one ShardTimeout for the next to time out, which
// marks the shard down; from then on its reads answer 503 at once.
func TestSilentShardLosesLease(t *testing.T) {
	c, slow := newSlowCluster(t)
	c.settle(t)
	held := -1
	for id := 0; id < 24 && held < 0; id++ {
		if RouteSlot(id, 3) == 2 {
			held = id
		}
	}
	path := fmt.Sprintf("/v1/objects/%d/blocks/0", held)
	before := c.localReads()
	if rec := c.do(t, http.MethodGet, path, nil); rec.Code != http.StatusOK || c.localReads() != before+1 {
		t.Fatalf("read before the stall: %d, %d answered locally; want 200 from the view", rec.Code, c.localReads()-before)
	}
	const shardTimeout = 100 * time.Millisecond
	slow.delay.Store(int64(5 * time.Second))
	start := time.Now()
	c.awaitDown(t, 2, shardTimeout/2+shardTimeout+150*time.Millisecond) // the bound, and scheduling slack
	lost := time.Since(start)
	before = c.localReads()
	rec := c.do(t, http.MethodGet, path, nil)
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" || c.localReads() != before {
		t.Fatalf("read after the lease ran out: %d (Retry-After %q), %d answered locally; want an immediate 503",
			rec.Code, rec.Header().Get("Retry-After"), c.localReads()-before)
	}
	t.Logf("silent shard marked down %s after it stalled (ShardTimeout %s)", lost, shardTimeout)
}

// TestDeadlinePerHopAndPerOperation is the router's deadline contract now
// that Handler adds none of its own. A data-path request that reaches a shard
// which has stopped answering — here a read past the object's extent, which
// the view leaves to the shard — costs one ShardTimeout, answers 503 and marks
// the shard down. A topology operation is bounded by OpTimeout and by nothing shorter:
// it rides out a shard that stalls several ShardTimeouts and then answers,
// and ends in 504 at OpTimeout against one that never does.
func TestDeadlinePerHopAndPerOperation(t *testing.T) {
	c, slow := newSlowCluster(t)
	c.router.cfg.OpTimeout = time.Second
	var onSlow, onFast []int // objects homed on the slow shard, and elsewhere
	for id := 0; id < 24; id++ {
		if RouteSlot(id, 3) == 2 {
			onSlow = append(onSlow, id)
		} else {
			onFast = append(onFast, id)
		}
	}

	slow.delay.Store(int64(1500 * time.Millisecond))
	// The stall is in front of the shard's HTTP handler: a connection the
	// view's self-check already upgraded would carry the read past it.
	c.router.topo.Load().slots[2].closeIdle()
	start := time.Now()
	rec := c.do(t, http.MethodGet, fmt.Sprintf("/v1/objects/%d/blocks/4", onSlow[0]), nil)
	if took := time.Since(start); rec.Code != http.StatusServiceUnavailable || took < 100*time.Millisecond || took > time.Second {
		t.Fatalf("read from a stalled shard: %d after %s, want 503 after one 100ms ShardTimeout: %s", rec.Code, took, rec.Body)
	}
	if c.router.topologyView().Shards[2].Healthy {
		t.Error("the stalled shard is still marked healthy")
	}
	if rec := c.do(t, http.MethodGet, fmt.Sprintf("/v1/objects/%d/blocks/0", onFast[0]), nil); rec.Code != http.StatusOK {
		t.Fatalf("read from a healthy shard meanwhile: %d: %s", rec.Code, rec.Body)
	}

	// The shard stalls for three ShardTimeouts, then answers.
	slow.delay.Store(int64(300 * time.Millisecond))
	time.AfterFunc(300*time.Millisecond, func() { slow.delay.Store(0) })
	move := func(id int) (*httptest.ResponseRecorder, time.Duration) {
		start := time.Now()
		rec := c.do(t, http.MethodPost, fmt.Sprintf("/v1/cluster/objects/%d/move", id), map[string]any{"shard": 2})
		return rec, time.Since(start)
	}
	if rec, took := move(onFast[0]); rec.Code != http.StatusOK || took < 100*time.Millisecond {
		t.Fatalf("move onto a shard that stalls past ShardTimeout, inside OpTimeout: %d after %s: %s", rec.Code, took, rec.Body)
	}

	slow.delay.Store(int64(1500 * time.Millisecond))
	if rec, took := move(onFast[1]); rec.Code != http.StatusGatewayTimeout || took < time.Second || took > 3*time.Second {
		t.Fatalf("move onto a shard that never answers: %d after %s, want 504 at the 1s OpTimeout: %s", rec.Code, took, rec.Body)
	}
}
