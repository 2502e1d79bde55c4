package cluster

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"strconv"
	"testing"
	"time"
)

// TestClusterRoutesReads seeds objects through the router and checks every
// routed read against the owning shard's own answer (the oracle), plus the
// shard attribution header.
func TestClusterRoutesReads(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	const n = 48
	c.seedObjects(t, n, 6)
	for id := 0; id < n; id++ {
		slot := RouteSlot(id, 3)
		rec := c.do(t, http.MethodGet, fmt.Sprintf("/v1/objects/%d/blocks/0", id), nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("read %d: status %d: %s", id, rec.Code, rec.Body)
		}
		if got := rec.Header().Get(ShardHeader); got != strconv.Itoa(slot) {
			t.Errorf("read %d: %s=%q, want %q", id, ShardHeader, got, strconv.Itoa(slot))
		}
		var routed map[string]any
		decode(t, rec, &routed)
		direct, code := readDirect(t, c.shards[slot], id, 0)
		if code != http.StatusOK {
			t.Fatalf("oracle read %d on shard %d: status %d", id, slot, code)
		}
		if routed["disk"] != direct["disk"] || routed["block"] != direct["block"] {
			t.Errorf("read %d: routed %v != direct %v", id, routed, direct)
		}
	}
	// Placement respected: every shard holds exactly its jump-hash keys.
	for slot, sh := range c.shards {
		want := 0
		for id := 0; id < n; id++ {
			if RouteSlot(id, 3) == slot {
				want++
			}
		}
		if got := len(catalogOf(t, sh)); got != want {
			t.Errorf("shard %d holds %d objects, want %d", slot, got, want)
		}
	}
}

// TestClusterSessionLifecycle opens, reads, seeks, and closes a session
// through the router, checking the cluster session ID encodes the shard.
func TestClusterSessionLifecycle(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	c.seedObjects(t, 12, 8)
	const obj = 5
	rec := c.do(t, http.MethodPost, "/v1/sessions", map[string]any{"object": obj})
	if rec.Code != http.StatusCreated && rec.Code != http.StatusOK {
		t.Fatalf("open session: status %d: %s", rec.Code, rec.Body)
	}
	var open map[string]any
	decode(t, rec, &open)
	cid := int(open["session"].(float64))
	shardID, _ := splitSessionID(cid)
	if want := RouteSlot(obj, 3); shardID != want {
		t.Fatalf("session %d encodes shard %d, want %d", cid, shardID, want)
	}
	rec = c.do(t, http.MethodGet, fmt.Sprintf("/v1/sessions/%d", cid), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("get session: status %d: %s", rec.Code, rec.Body)
	}
	var got map[string]any
	decode(t, rec, &got)
	if int(got["session"].(float64)) != cid {
		t.Fatalf("get session returned ID %v, want %d", got["session"], cid)
	}
	rec = c.do(t, http.MethodPost, fmt.Sprintf("/v1/sessions/%d/seek", cid), map[string]any{"position": 3})
	if rec.Code != http.StatusOK {
		t.Fatalf("seek: status %d: %s", rec.Code, rec.Body)
	}
	rec = c.do(t, http.MethodDelete, fmt.Sprintf("/v1/sessions/%d", cid), nil)
	if rec.Code != http.StatusOK && rec.Code != http.StatusNoContent {
		t.Fatalf("close: status %d: %s", rec.Code, rec.Body)
	}
	// A session naming an unknown shard is a clean 404, not a panic.
	rec = c.do(t, http.MethodGet, fmt.Sprintf("/v1/sessions/%d", sessionID(999, 1)), nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown-shard session: status %d, want 404", rec.Code)
	}
}

// TestAddShardMigratesMinimally grows 3→4 shards under a seeded catalog
// and checks the moved set is exactly the jump-hash prediction: the moved
// fraction is within 10% of the 1/4 ideal, every moved object landed on
// the new shard, and no object was lost or duplicated.
func TestAddShardMigratesMinimally(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	const n = 360
	c.seedObjects(t, n, 4)
	_, stats := c.addShard(t)
	if stats.Objects != n {
		t.Fatalf("migration saw %d objects, want %d", stats.Objects, n)
	}
	wantMoved := 0
	for id := 0; id < n; id++ {
		if RouteSlot(id, 3) != RouteSlot(id, 4) {
			wantMoved++
		}
	}
	if stats.Moved != wantMoved {
		t.Errorf("moved %d objects, jump hash predicts %d", stats.Moved, wantMoved)
	}
	if math.Abs(stats.Fraction-stats.Ideal) > 0.1*stats.Ideal {
		t.Errorf("moved fraction %.4f not within 10%% of ideal %.4f", stats.Fraction, stats.Ideal)
	}
	seen := make(map[int]int)
	for slot, sh := range c.shards {
		for _, id := range catalogOf(t, sh) {
			seen[id]++
			if want := RouteSlot(id, 4); slot != want {
				t.Errorf("object %d on shard %d, want %d", id, slot, want)
			}
		}
	}
	if len(seen) != n {
		t.Fatalf("catalog union holds %d objects, want %d", len(seen), n)
	}
	for id, copies := range seen {
		if copies != 1 {
			t.Errorf("object %d has %d copies", id, copies)
		}
	}
	// Every object still readable through the router.
	for id := 0; id < n; id++ {
		c.readVia(t, id, 0)
	}
}

// TestDrainShard drains the tail shard and checks tail-only enforcement,
// catalog emptiness, and removal.
func TestDrainShard(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	const n = 90
	c.seedObjects(t, n, 4)
	ctx := context.Background()

	// Only the tail routing slot may drain.
	if _, err := c.router.DrainShard(ctx, 0); err == nil {
		t.Fatal("draining a non-tail shard succeeded")
	}
	stats, err := c.router.DrainShard(ctx, 2)
	if err != nil {
		t.Fatalf("drain tail: %v", err)
	}
	wantMoved := 0
	for id := 0; id < n; id++ {
		if RouteSlot(id, 3) == 2 {
			wantMoved++
		}
	}
	if stats.Moved != wantMoved {
		t.Errorf("drain moved %d, want the tail's %d keys", stats.Moved, wantMoved)
	}
	if got := len(catalogOf(t, c.shards[2])); got != 0 {
		t.Errorf("drained shard still holds %d objects", got)
	}
	// All objects survive on the remaining shards and read correctly.
	for id := 0; id < n; id++ {
		out := c.readVia(t, id, 0)
		slot := RouteSlot(id, 2)
		direct, code := readDirect(t, c.shards[slot], id, 0)
		if code != http.StatusOK || out["disk"] != direct["disk"] {
			t.Errorf("object %d after drain: routed %v direct %v (code %d)", id, out, direct, code)
		}
	}
	// Drained shard refuses removal only while still in the window; here it
	// is out, so removal succeeds and a fresh shard can join again.
	if err := c.router.RemoveShard(2); err != nil {
		t.Fatalf("remove drained shard: %v", err)
	}
	if got := len(c.router.Topology().Shards); got != 2 {
		t.Fatalf("topology lists %d shards after removal, want 2", got)
	}
	c.addShard(t)
	for id := 0; id < n; id++ {
		c.readVia(t, id, 0)
	}
}

// TestDrainLastShardRefused pins the guard against draining to zero.
func TestDrainLastShardRefused(t *testing.T) {
	c := newTestCluster(t, 1, nil)
	if _, err := c.router.DrainShard(context.Background(), 0); err == nil {
		t.Fatal("draining the last shard succeeded")
	}
}

// TestManifestRecovery restarts the router from its manifest and checks
// topology, routing, and version survive.
func TestManifestRecovery(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "cluster.json")
	c := newTestCluster(t, 2, func(cfg *RouterConfig) { cfg.ManifestPath = manifest })
	const n = 24
	c.seedObjects(t, n, 4)
	before := c.router.Topology()
	c.router.Close()

	r2, err := NewRouter(RouterConfig{
		ManifestPath: manifest, ProbeInterval: -1, Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer r2.Close()
	after := r2.Topology()
	if after.Version != before.Version || after.Buckets != before.Buckets ||
		len(after.Shards) != len(before.Shards) {
		t.Fatalf("recovered topology %+v != saved %+v", after, before)
	}
	for id := 0; id < n; id++ {
		rec := doReq(t, r2.Handler(), http.MethodGet, fmt.Sprintf("/v1/objects/%d/blocks/0", id), nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("read %d after restart: status %d: %s", id, rec.Code, rec.Body)
		}
	}
}

// TestPendingOpResume simulates a router crash mid-add: the manifest holds
// a pending op whose migration is half-finished (nothing moved yet), and a
// restarted router must complete it — landing exactly the moved keys on
// the new shard with none lost.
func TestPendingOpResume(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "cluster.json")
	c := newTestCluster(t, 2, func(cfg *RouterConfig) { cfg.ManifestPath = manifest })
	const n = 60
	c.seedObjects(t, n, 4)

	// A third shard, joined "by a crashed router": it is in the manifest
	// with a pending add, but no keys have moved.
	extra := newTestShard(t)
	c.shards = append(c.shards, extra)
	man := c.router.Topology()
	c.router.Close()
	man.Shards = append(man.Shards, ShardInfo{ID: man.NextID, URL: extra.srv.URL, State: "active"})
	man.Pending = &PendingOp{Kind: "add", ShardID: man.NextID, OldBuckets: 2, NewBuckets: 3}
	man.NextID++
	if err := man.Save(manifest); err != nil {
		t.Fatal(err)
	}

	r2, err := NewRouter(RouterConfig{
		ManifestPath: manifest, ProbeInterval: -1, Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("restart with pending op: %v", err)
	}
	defer r2.Close()
	// Reads must serve even before reconciliation (routed to old homes).
	rec := doReq(t, r2.Handler(), http.MethodGet, "/v1/objects/0/blocks/0", nil)
	if rec.Code != http.StatusOK && rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("read during pending op: status %d: %s", rec.Code, rec.Body)
	}
	if err := r2.Reconcile(context.Background()); err != nil {
		t.Fatalf("reconcile: %v", err)
	}
	if p := r2.Topology().Pending; p != nil {
		t.Fatalf("pending op survived reconcile: %+v", p)
	}
	// Post-reconcile: all objects present exactly once, at their 3-shard
	// homes, and readable through the restarted router.
	seen := make(map[int]bool)
	for slot, sh := range c.shards {
		for _, id := range catalogOf(t, sh) {
			if seen[id] {
				t.Errorf("object %d duplicated", id)
			}
			seen[id] = true
			if want := RouteSlot(id, 3); slot != want {
				t.Errorf("object %d on shard %d, want %d", id, slot, want)
			}
		}
	}
	if len(seen) != n {
		t.Fatalf("%d objects after resume, want %d", len(seen), n)
	}
	for id := 0; id < n; id++ {
		rec := doReq(t, r2.Handler(), http.MethodGet, fmt.Sprintf("/v1/objects/%d/blocks/0", id), nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("read %d after resume: status %d: %s", id, rec.Code, rec.Body)
		}
	}
}

// TestDownShardBackpressure stops one shard and checks its keys answer
// 503+Retry-After while other shards' keys keep serving. The 503s begin when
// the router marks the shard down, and here that is at once: closing the
// server breaks the follower's connection — its parked poll is answered with
// "Connection: close" and the dial of the next one is refused — which marks
// the shard down as a failed hop would. No read has to time out first, and
// none is answered from the dead shard's view meanwhile: awaitDown's bound is
// far inside the one-second ShardTimeout a silent shard's lease would run
// (TestSilentShardLosesLease).
func TestDownShardBackpressure(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	const n = 30
	c.seedObjects(t, n, 4)
	c.shards[1].srv.Close()
	c.awaitDown(t, 1, 250*time.Millisecond)
	saw503, saw200 := false, false
	for id := 0; id < n; id++ {
		rec := c.do(t, http.MethodGet, fmt.Sprintf("/v1/objects/%d/blocks/0", id), nil)
		switch {
		case RouteSlot(id, 3) == 1:
			if rec.Code != http.StatusServiceUnavailable {
				t.Errorf("object %d on dead shard: status %d, want 503", id, rec.Code)
			}
			if rec.Header().Get("Retry-After") == "" {
				t.Errorf("object %d: 503 without Retry-After", id)
			}
			saw503 = true
		default:
			if rec.Code != http.StatusOK {
				t.Errorf("object %d on live shard: status %d: %s", id, rec.Code, rec.Body)
			}
			saw200 = true
		}
	}
	if !saw503 || !saw200 {
		t.Fatalf("test vacuous: saw503=%v saw200=%v", saw503, saw200)
	}
	// Session opens to the dead shard's keys are refused the same way.
	for id := 0; id < n; id++ {
		if RouteSlot(id, 3) != 1 {
			continue
		}
		rec := c.do(t, http.MethodPost, "/v1/sessions", map[string]any{"object": id})
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("session open to dead shard: status %d, want 503", rec.Code)
		}
		break
	}
}

// TestDrainingShardRefusesSessions restores a topology whose tail shard is
// mid-drain and checks new sessions bounce with 503 while reads and
// existing-session operations still pass through.
func TestDrainingShardRefusesSessions(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "cluster.json")
	c := newTestCluster(t, 2, func(cfg *RouterConfig) { cfg.ManifestPath = manifest })
	const n = 24
	c.seedObjects(t, n, 4)
	man := c.router.Topology()
	c.router.Close()
	man.Shards[1].State = "draining"
	man.Version++
	if err := man.Save(manifest); err != nil {
		t.Fatal(err)
	}
	r2, err := NewRouter(RouterConfig{ManifestPath: manifest, ProbeInterval: -1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	checked := false
	for id := 0; id < n; id++ {
		if RouteSlot(id, 2) != 1 {
			continue
		}
		rec := doReq(t, r2.Handler(), http.MethodPost, "/v1/sessions", map[string]any{"object": id})
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("session open on draining shard: status %d, want 503", rec.Code)
		}
		rec = doReq(t, r2.Handler(), http.MethodGet, fmt.Sprintf("/v1/objects/%d/blocks/0", id), nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("read on draining shard: status %d, want 200", rec.Code)
		}
		checked = true
		break
	}
	if !checked {
		t.Fatal("no object routed to the draining shard; widen n")
	}
}

// TestShardOpEndpoint drives add/drain/remove through the HTTP surface.
func TestShardOpEndpoint(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	c.seedObjects(t, 40, 4)

	extra := newTestShard(t)
	c.shards = append(c.shards, extra)
	rec := c.do(t, http.MethodPost, "/v1/cluster/shards", map[string]any{"op": "add", "url": extra.srv.URL})
	if rec.Code != http.StatusOK {
		t.Fatalf("add op: status %d: %s", rec.Code, rec.Body)
	}
	var resp shardOpResponse
	decode(t, rec, &resp)
	if resp.Shard.ID != 2 || resp.Migration == nil || resp.Migration.Objects != 40 {
		t.Fatalf("add response %+v", resp)
	}

	rec = c.do(t, http.MethodGet, "/v1/cluster/shards", nil)
	var view TopologyView
	decode(t, rec, &view)
	if view.Buckets != 3 || len(view.Shards) != 3 {
		t.Fatalf("topology view %+v", view)
	}

	rec = c.do(t, http.MethodPost, "/v1/cluster/shards", map[string]any{"op": "drain", "id": 2})
	if rec.Code != http.StatusOK {
		t.Fatalf("drain op: status %d: %s", rec.Code, rec.Body)
	}
	rec = c.do(t, http.MethodPost, "/v1/cluster/shards", map[string]any{"op": "remove", "id": 2})
	if rec.Code != http.StatusOK {
		t.Fatalf("remove op: status %d: %s", rec.Code, rec.Body)
	}
	rec = c.do(t, http.MethodPost, "/v1/cluster/shards", map[string]any{"op": "chaos"})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad op: status %d, want 400", rec.Code)
	}
	// Operator-input mistakes are client errors, not router failures.
	for _, tc := range []struct {
		body map[string]any
		want int
	}{
		{map[string]any{"op": "drain", "id": 9}, http.StatusBadRequest},                  // unknown shard: not the tail
		{map[string]any{"op": "drain", "id": 0}, http.StatusBadRequest},                  // non-tail
		{map[string]any{"op": "remove", "id": 0}, http.StatusBadRequest},                 // still routing
		{map[string]any{"op": "remove", "id": 9}, http.StatusNotFound},                   // unknown shard
		{map[string]any{"op": "add", "url": c.shards[0].srv.URL}, http.StatusBadRequest}, // duplicate URL
	} {
		rec = c.do(t, http.MethodPost, "/v1/cluster/shards", tc.body)
		if rec.Code != tc.want {
			t.Fatalf("%v: status %d, want %d: %s", tc.body, rec.Code, tc.want, rec.Body)
		}
	}
	for id := 0; id < 40; id++ {
		c.readVia(t, id, 0)
	}
}

// TestEmptyClusterServes503 checks the zero-shard router degrades cleanly.
func TestEmptyClusterServes503(t *testing.T) {
	r, err := NewRouter(RouterConfig{ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rec := doReq(t, r.Handler(), http.MethodGet, "/v1/objects/0/blocks/0", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("read on empty cluster: status %d, want 503", rec.Code)
	}
	rec = doReq(t, r.Handler(), http.MethodGet, "/v1/healthz", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz on empty cluster: status %d, want 503", rec.Code)
	}
}
