package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"scaddar/internal/cm"
	"scaddar/internal/gateway"
	"scaddar/internal/obs"
	"scaddar/internal/placement"
	"scaddar/internal/prng"
	"scaddar/internal/scaddar"
)

func testFactory(seed uint64) prng.Source { return prng.NewSplitMix64(seed) }

// testShard is one in-process shard: a real gateway served over HTTP.
type testShard struct {
	g   *gateway.Gateway
	srv *httptest.Server
}

// stop closes the shard, gateway first: that answers the poll a router's
// follower has parked on it, which httptest's Close would otherwise sit out.
func (sh *testShard) stop() {
	sh.g.Close()
	sh.srv.Close()
}

// shardOpts shapes a test shard; the zero value is newTestShard's.
type shardOpts struct {
	n0    int                             // disks; zero means 4
	round time.Duration                   // round period; zero means 2ms
	cm    func(*cm.Config)                // adjusts the server's config
	wrap  func(http.Handler) http.Handler // wraps the HTTP handler (fault injection)
	addr  string                          // listens here instead of on a fresh loopback port
	// factory is the generator family the shard is built over; nil means
	// testFactory, the SplitMix64 the router's views assume.
	factory scaddar.SourceFactory
}

// newTestShard boots an empty shard gateway on a loopback HTTP server.
func newTestShard(t testing.TB) *testShard { return bootShard(t, shardOpts{}) }

// newTestShardWith boots a shard whose HTTP handler is wrapped (fault
// injection for the fan-out tests).
func newTestShardWith(t testing.TB, wrap func(http.Handler) http.Handler) *testShard {
	return bootShard(t, shardOpts{wrap: wrap})
}

// bootShard boots an empty shard gateway and serves it over HTTP.
func bootShard(t testing.TB, o shardOpts) *testShard {
	t.Helper()
	if o.n0 == 0 {
		o.n0 = 4
	}
	if o.round == 0 {
		o.round = 2 * time.Millisecond
	}
	if o.factory == nil {
		o.factory = testFactory
	}
	strat, err := placement.NewScaddar(o.n0, placement.NewX0Func(o.factory))
	if err != nil {
		t.Fatal(err)
	}
	cfg := cm.DefaultConfig()
	if o.cm != nil {
		o.cm(&cfg)
	}
	srv, err := cm.NewServer(cfg, strat)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gateway.New(srv, gateway.Config{Factory: o.factory, Round: o.round, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	var h http.Handler = g.Handler()
	if o.wrap != nil {
		h = o.wrap(h)
	}
	hs := httptest.NewUnstartedServer(h)
	if o.addr != "" {
		hs.Listener.Close()
		if hs.Listener, err = net.Listen("tcp", o.addr); err != nil {
			t.Fatalf("listen on %s again: %v", o.addr, err)
		}
	}
	hs.Start()
	sh := &testShard{g: g, srv: hs}
	t.Cleanup(sh.stop)
	return sh
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

// settle waits for one feed delivery: until the router's view of every shard
// reflects the shard's own feed position and, where it has anything to
// answer, serves. A test calls it after changing a shard behind the router's
// back — a direct request, a round — and before asserting what a routed read
// says: a change made through the router needs no such wait (the floor).
func (c *testCluster) settle(t testing.TB) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for _, slot := range c.router.topo.Load().slots {
		var sh *testShard
		for _, cand := range c.shards {
			if cand.srv.URL == slot.url {
				sh = cand
			}
		}
		if sh == nil {
			t.Fatalf("settle: no test shard at %s", slot.url)
		}
		for slot.loc.Pos() != sh.g.Feed().Pos() || slot.view.Load() == nil && len(slot.loc.Objects()) > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("settle: shard %d view %s at %v, the shard's feed at %v",
					slot.id, slot.viewState.Load(), slot.loc.Pos(), sh.g.Feed().Pos())
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
}

// localReads sums cluster_reads_local_total over the shards.
func (c *testCluster) localReads() (n uint64) {
	for _, slot := range c.router.topo.Load().slots {
		n += slot.readsLocal.Value()
	}
	return n
}

// awaitDown waits for the router to mark a shard down and fails the test if
// that takes longer than within.
func (c *testCluster) awaitDown(t testing.TB, slot int, within time.Duration) {
	t.Helper()
	sh := c.router.topo.Load().slots[slot]
	for start := time.Now(); sh.healthy.Load(); time.Sleep(time.Millisecond) {
		if time.Since(start) > within {
			t.Fatalf("shard %d still marked healthy %s after it died", sh.id, within)
		}
	}
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
