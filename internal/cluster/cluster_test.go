package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"scaddar/internal/cm"
	"scaddar/internal/gateway"
	"scaddar/internal/obs"
	"scaddar/internal/placement"
	"scaddar/internal/prng"
)

func testFactory(seed uint64) prng.Source { return prng.NewSplitMix64(seed) }

// testShard is one in-process shard: a real gateway served over HTTP.
type testShard struct {
	g   *gateway.Gateway
	srv *httptest.Server
}

// newTestShard boots an empty shard gateway on a loopback HTTP server.
func newTestShard(t testing.TB) *testShard { return newTestShardWith(t, nil) }

// newTestShardWith boots a shard whose HTTP handler is optionally wrapped
// (fault injection for the fan-out tests).
func newTestShardWith(t testing.TB, wrap func(http.Handler) http.Handler) *testShard {
	t.Helper()
	strat, err := placement.NewScaddar(4, placement.NewX0Func(testFactory))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := cm.NewServer(cm.DefaultConfig(), strat)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gateway.New(srv, gateway.Config{
		Factory:  testFactory,
		Round:    2 * time.Millisecond,
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var h http.Handler = g.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	hs := httptest.NewServer(h)
	t.Cleanup(func() {
		hs.Close()
		g.Close()
	})
	return &testShard{g: g, srv: hs}
}

// testCluster is a router fronting k in-process shards.
type testCluster struct {
	router *Router
	shards []*testShard
}

// newTestCluster boots k shards and a router with them joined, using fast
// timeouts and no active prober (health is probed at join and marked
// passively afterwards).
func newTestCluster(t testing.TB, k int, mutate func(*RouterConfig)) *testCluster {
	t.Helper()
	cfg := RouterConfig{
		ShardTimeout:  time.Second,
		OpTimeout:     30 * time.Second,
		ProbeInterval: -1,
		Logf:          t.Logf,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	c := &testCluster{router: r}
	for i := 0; i < k; i++ {
		c.addShard(t)
	}
	return c
}

// addShard boots one more shard and joins it to the router.
func (c *testCluster) addShard(t testing.TB) (ShardInfo, MigrationStats) {
	t.Helper()
	sh := newTestShard(t)
	c.shards = append(c.shards, sh)
	info, stats, err := c.router.AddShard(context.Background(), sh.srv.URL)
	if err != nil {
		t.Fatalf("AddShard: %v", err)
	}
	return info, stats
}

// seedObject loads one object through the router's admin surface.
func (c *testCluster) seedObject(t testing.TB, id, blocks int) {
	t.Helper()
	rec := c.do(t, http.MethodPost, "/v1/admin/objects", map[string]any{
		"id": id, "seed": uint64(1000 + id), "blocks": blocks,
		"bitrateBitsPerSec": 4 << 20,
	})
	if rec.Code != http.StatusCreated {
		t.Fatalf("seed object %d: status %d: %s", id, rec.Code, rec.Body)
	}
}

// seedObjects loads objects 0..n-1 with the given block count.
func (c *testCluster) seedObjects(t testing.TB, n, blocks int) {
	t.Helper()
	for id := 0; id < n; id++ {
		c.seedObject(t, id, blocks)
	}
}

// do runs one request against the router handler.
func (c *testCluster) do(t testing.TB, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	return doReq(t, c.router.Handler(), method, path, body)
}

// doReq runs one request against any handler.
func doReq(t testing.TB, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// decode unmarshals a recorded JSON body.
func decode(t testing.TB, rec *httptest.ResponseRecorder, v any) {
	t.Helper()
	if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
		t.Fatalf("decode %q: %v", rec.Body, err)
	}
}

// readVia reads object id block idx through the router and returns the
// response map; fails the test on a non-200 unless allow503 retries are
// left (it retries 503s, the router's backpressure shape).
func (c *testCluster) readVia(t testing.TB, id, idx int) map[string]any {
	t.Helper()
	path := fmt.Sprintf("/v1/objects/%d/blocks/%d", id, idx)
	for attempt := 0; ; attempt++ {
		rec := c.do(t, http.MethodGet, path, nil)
		if rec.Code == http.StatusOK {
			var out map[string]any
			decode(t, rec, &out)
			return out
		}
		if rec.Code == http.StatusServiceUnavailable && attempt < 50 {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		t.Fatalf("read %d/%d: status %d: %s", id, idx, rec.Code, rec.Body)
	}
}

// readDirect reads object id block idx straight from one shard gateway,
// bypassing the router — the oracle the routed answer is checked against.
func readDirect(t testing.TB, sh *testShard, id, idx int) (map[string]any, int) {
	t.Helper()
	rec := doReq(t, sh.g.Handler(), http.MethodGet,
		fmt.Sprintf("/v1/objects/%d/blocks/%d", id, idx), nil)
	if rec.Code != http.StatusOK {
		return nil, rec.Code
	}
	var out map[string]any
	decode(t, rec, &out)
	return out, rec.Code
}

// catalogOf lists a shard's object IDs via its admin surface.
func catalogOf(t testing.TB, sh *testShard) []int {
	t.Helper()
	rec := doReq(t, sh.g.Handler(), http.MethodGet, "/v1/admin/objects", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("catalog: status %d: %s", rec.Code, rec.Body)
	}
	var items []struct {
		ID int `json:"id"`
	}
	decode(t, rec, &items)
	ids := make([]int, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	return ids
}
