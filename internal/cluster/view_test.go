package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scaddar/internal/cm"
	"scaddar/internal/dataplane"
	"scaddar/internal/obs"
	"scaddar/internal/placement"
	"scaddar/internal/prng"
)

// The contract of the shard views (view.go): a read answered from a view is,
// byte for byte, what the shard answers; a write made through the router is
// never read back stale; a change made behind the router's back shows after
// one feed delivery; and the counters say which reads were answered where.

// round drives one round of a still shard by hand — Tick, then what the
// gateway's own ticker does once a drain is through — and publishes it.
func (sh *testShard) round(t testing.TB) (reorganizing, degraded bool) {
	t.Helper()
	_, err := sh.g.Exec(context.Background(), func(s *cm.Server) (any, error) {
		if err := s.Tick(); err != nil {
			return nil, err
		}
		if !s.Reorganizing() {
			_ = s.FinishReorganization() // refused while there is nothing to finish, or a rebuild is owed
		}
		reorganizing, degraded = s.Reorganizing(), s.Degraded()
		return nil, nil
	})
	if err != nil {
		t.Fatalf("round: %v", err)
	}
	return reorganizing, degraded
}

// forwardedReads snapshots cluster_reads_forwarded_total by reason.
func (c *testCluster) forwardedReads() (n [fwdReasons]uint64) {
	for i, ctr := range c.router.m.forwarded {
		n[i] = ctr.Value()
	}
	return n
}

// sameReply reports how a routed reply differs from the direct one, "" if in
// nothing that is compared: status, Content-Type, Retry-After presence, body.
func sameReply(routed, direct *httptest.ResponseRecorder) string {
	if routed.Code != direct.Code || routed.Body.String() != direct.Body.String() ||
		routed.Header().Get("Content-Type") != direct.Header().Get("Content-Type") ||
		(routed.Header().Get("Retry-After") == "") != (direct.Header().Get("Retry-After") == "") {
		return fmt.Sprintf("routed %d %q %v, direct %d %q %v",
			routed.Code, routed.Body, routed.Header(), direct.Code, direct.Body, direct.Header())
	}
	return ""
}

// TestViewMatchesShardThroughItsLife is the differential test of the view: a
// scripted shard life — object add and remove, a scale-up and every round of
// its drain, a scale-down caught mid-drain with the index translation live, a
// disk failing, rebuilding and healthy again, a complete redistribution, an
// object moved between shards, a shard restarted under the router — and at
// every step every routed reply equals, byte for byte, the reply of the shard
// the router names. A step whose change went through the router is compared at
// once, with no wait: the floor holds the view back until it has caught up,
// and those reads are counted as forwarded, by reason. Every step is compared
// again after one feed delivery, and then the view must have answered: the
// local counter is what keeps the test from passing on the hop alone.
func TestViewMatchesShardThroughItsLife(t *testing.T) {
	const objects, blocks = 6, 48
	c := &testCluster{}
	var err error
	if c.router, err = NewRouter(RouterConfig{ShardTimeout: time.Second, ProbeInterval: -1, Logf: t.Logf}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.router.Close)
	// Mirrored, so that a failed disk rebuilds; and rounds short enough that a
	// drain of a few dozen blocks takes several.
	mirrored := func(cfg *cm.Config) { cfg.Redundancy, cfg.Round = cm.RedundancyMirror, 50*time.Millisecond }
	for i := 0; i < 2; i++ {
		sh := bootShard(t, shardOpts{n0: 6, round: time.Hour, cm: mirrored})
		c.shards = append(c.shards, sh)
		if _, _, err := c.router.AddShard(context.Background(), sh.srv.URL); err != nil {
			t.Fatal(err)
		}
	}
	c.seedObjects(t, objects, blocks)
	onShard0 := -1 // the object whose shard the script works on
	for id := 0; id < objects && onShard0 < 0; id++ {
		if RouteSlot(id, 2) == 0 {
			onShard0 = id
		}
	}

	var probes []string
	for id := 0; id <= objects; id++ { // one object past the catalogue: the unknown one
		for idx := 0; idx <= blocks; idx += 3 { // and a block past the extent
			probes = append(probes, fmt.Sprintf("/v1/objects/%d/blocks/%d", id, idx))
		}
	}
	steps, stepsLocal := 0, 0
	compare := func(step string) {
		t.Helper()
		local, fwd := c.localReads(), c.forwardedReads()
		for _, path := range probes {
			routed := rawReq(c.router.Handler(), http.MethodGet, path)
			sh := c.shardByLabel(routed.Header().Get(ShardHeader))
			if sh == nil {
				t.Fatalf("%s: GET %s: no shard named: %d %s", step, path, routed.Code, routed.Body)
			}
			if diff := sameReply(routed, rawReq(sh.g.Handler(), http.MethodGet, path)); diff != "" {
				t.Fatalf("%s: GET %s: %s", step, path, diff)
			}
		}
		steps++
		gotLocal, gotFwd := c.localReads()-local, c.forwardedReads()
		for i := range gotFwd {
			gotFwd[i] -= fwd[i]
		}
		if gotLocal > 0 {
			stepsLocal++
		}
		t.Logf("%-46s %3d local, forwarded %v %v", step, gotLocal, fwdReasonLabels, gotFwd)
	}
	// through is a step whose change went through the router: compared at
	// once, and again once delivered. behind is one made on the shard itself.
	settled := func(step string) {
		t.Helper()
		c.settle(t)
		local := c.localReads()
		compare(step + ", delivered")
		if c.localReads() == local {
			t.Errorf("%s: after the delivery no read was answered from a view", step)
		}
	}
	through := func(step string) { t.Helper(); compare(step + ", at once"); settled(step) }
	post := func(h http.Handler, path string, body any, want int) {
		t.Helper()
		if rec := doReq(t, h, http.MethodPost, path, body); rec.Code != want {
			t.Fatalf("POST %s %v: %d, want %d: %s", path, body, rec.Code, want, rec.Body)
		}
	}
	router, shard0 := c.router.Handler(), c.shards[0]
	drain := func(step string) {
		t.Helper()
		for n := 1; ; n++ {
			reorganizing, _ := shard0.round(t)
			settled(fmt.Sprintf("%s, round %d", step, n))
			if !reorganizing {
				return
			}
			if n > 500 {
				t.Fatalf("%s: still draining after %d rounds", step, n)
			}
		}
	}

	through("objects loaded")
	c.seedObject(t, objects+100, blocks)
	probes = append(probes, fmt.Sprintf("/v1/objects/%d/blocks/%d", objects+100, blocks-1))
	through("object added")
	if rec := c.do(t, http.MethodDelete, fmt.Sprintf("/v1/admin/objects/%d", objects+100), nil); rec.Code != http.StatusOK {
		t.Fatalf("remove: %d %s", rec.Code, rec.Body)
	}
	through("object removed")

	post(router, "/v1/scale", map[string]any{"shard": 0, "add": 2}, http.StatusAccepted)
	through("scale-up started")
	drain("scale-up")

	post(router, "/v1/scale", map[string]any{"shard": 0, "remove": []int{1}}, http.StatusAccepted)
	through("scale-down started, preOf live")
	shard0.round(t)
	settled("scale-down mid-drain, preOf live")
	if snap := shard0.g.LocatorSnapshotWire(); snap.PreOf == nil || !snap.Reorganizing {
		t.Fatalf("the scale-down was to be caught mid-drain: preOf %v reorganizing %v", snap.PreOf, snap.Reorganizing)
	}
	drain("scale-down")

	var loc struct{ Disk int }
	decode(t, doReq(t, shard0.g.Handler(), http.MethodGet, fmt.Sprintf("/v1/objects/%d/blocks/0", onShard0), nil), &loc)
	post(shard0.g.Handler(), fmt.Sprintf("/v1/disks/%d/fail", loc.Disk), nil, http.StatusAccepted)
	settled("disk failed")
	if rec := rawReq(router, http.MethodGet, fmt.Sprintf("/v1/objects/%d/blocks/0", onShard0)); !strings.Contains(rec.Body.String(), `"healthy":false`) {
		t.Fatalf("a block of the failed disk reads %s", rec.Body)
	}
	post(shard0.g.Handler(), fmt.Sprintf("/v1/disks/%d/repair", loc.Disk), nil, http.StatusAccepted)
	settled("disk repairing")
	for n := 1; ; n++ {
		_, degraded := shard0.round(t)
		settled(fmt.Sprintf("rebuild, round %d", n))
		if !degraded {
			break
		}
		if n > 500 {
			t.Fatalf("still rebuilding after %d rounds", n)
		}
	}
	if rec := rawReq(router, http.MethodGet, fmt.Sprintf("/v1/objects/%d/blocks/0", onShard0)); !strings.Contains(rec.Body.String(), `"healthy":true`) {
		t.Fatalf("a block of the rebuilt disk reads %s", rec.Body)
	}

	post(router, "/v1/scale", map[string]any{"shard": 0, "redistribute": true}, http.StatusAccepted)
	through("complete redistribution started")
	drain("complete redistribution")

	post(router, fmt.Sprintf("/v1/cluster/objects/%d/move", onShard0), map[string]any{"shard": 1}, http.StatusOK)
	through("object moved between shards")
	if rec := rawReq(router, http.MethodGet, fmt.Sprintf("/v1/objects/%d/blocks/0", onShard0)); rec.Header().Get(ShardHeader) != "1" {
		t.Fatalf("the moved object is answered for by shard %q", rec.Header().Get(ShardHeader))
	}

	// Restart shard 1 under the router: a new process on the old address, its
	// catalogue reloaded, its feed a new incarnation starting again at zero.
	old, slot := c.shards[1], c.router.topo.Load().slots[1]
	var reload []map[string]any
	decode(t, doReq(t, old.g.Handler(), http.MethodGet, "/v1/admin/objects", nil), &reload)
	old.stop()
	c.awaitDown(t, 1, 250*time.Millisecond)
	c.shards[1] = bootShard(t, shardOpts{n0: 6, round: time.Hour, cm: mirrored, addr: old.srv.Listener.Addr().String()})
	for _, obj := range reload {
		post(c.shards[1].g.Handler(), "/v1/admin/objects", obj, http.StatusCreated)
	}
	for start := time.Now(); !slot.healthy.Load(); time.Sleep(time.Millisecond) {
		if time.Since(start) > 5*time.Second {
			t.Fatal("the restarted shard was not marked healthy again")
		}
	}
	settled("shard restarted")
	if was, is := old.g.Feed().Pos(), slot.loc.Pos(); was.ID == is.ID || is != c.shards[1].g.Feed().Pos() {
		t.Fatalf("after the restart the view is at %v: the old feed was %v, the new one is %v", is, was, c.shards[1].g.Feed().Pos())
	}
	// The floor crossed with it: a write through the router reads back at once.
	c.seedObject(t, objects+101, blocks)
	probes = append(probes, fmt.Sprintf("/v1/objects/%d/blocks/0", objects+101))
	through("object added after the restart")

	if stepsLocal*2 <= steps {
		t.Errorf("%d of %d steps were answered from a view: want more than half", stepsLocal, steps)
	}
	t.Logf("%d steps, %d with reads answered from a view", steps, stepsLocal)
}

// TestReadYourWritesThroughRouter is the floor: a thousand times over, an
// object loaded through the router is read through the router in the very
// next request, and is there — the view that would say 404 is older than the
// stamp on the load's reply and is not asked. And a scale started through the
// router is never followed by an answer from before it: on a shard that drains
// nothing the very next read says reorganizing, round after round of
// scale, read, drain.
func TestReadYourWritesThroughRouter(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	h := c.router.Handler()
	const writes, blocks = 1000, 4
	for id := 0; id < writes; id++ {
		c.seedObject(t, id, blocks)
		if rec := rawReq(h, http.MethodGet, fmt.Sprintf("/v1/objects/%d/blocks/%d", id, blocks-1)); rec.Code != http.StatusOK {
			t.Fatalf("object %d read right after its load: %d %s", id, rec.Code, rec.Body)
		}
	}
	c.settle(t)
	local, fwd := c.localReads(), c.forwardedReads()
	t.Logf("%d loads each read back at once: %d answered from a view, forwarded %v %v", writes, local, fwdReasonLabels, fwd)
	if local+fwd[fwdBehind]+fwd[fwdNoView]+fwd[fwdMiss]+fwd[fwdLease] != writes {
		t.Errorf("the counters account for %d of %d reads", local+fwd[fwdBehind]+fwd[fwdNoView]+fwd[fwdMiss]+fwd[fwdLease], writes)
	}

	still := &testCluster{router: routerOver(t)}
	for i := 0; i < 2; i++ {
		sh := stillShard(t)
		still.shards = append(still.shards, sh)
		if _, _, err := still.router.AddShard(context.Background(), sh.srv.URL); err != nil {
			t.Fatal(err)
		}
	}
	still.seedObjects(t, 8, 32)
	still.settle(t)
	for n := 0; n < 12; n++ {
		target := n % 2
		if rec := still.do(t, http.MethodPost, "/v1/scale", map[string]any{"shard": target, "add": 1}); rec.Code != http.StatusAccepted {
			t.Fatalf("scale %d: %d %s", n, rec.Code, rec.Body)
		}
		for id := 0; id < 8; id++ {
			rec := rawReq(still.router.Handler(), http.MethodGet, fmt.Sprintf("/v1/objects/%d/blocks/%d", id, n))
			if rec.Code != http.StatusOK {
				t.Fatalf("scale %d, object %d: %d %s", n, id, rec.Code, rec.Body)
			}
			if onTarget := rec.Header().Get(ShardHeader) == shardLabel(target); onTarget && !strings.Contains(rec.Body.String(), `"reorganizing":true`) {
				t.Fatalf("scale %d: the read after it says %s: an answer from before the scale", n, rec.Body)
			}
		}
		for reorganizing := true; reorganizing; {
			reorganizing, _ = still.shards[target].round(t)
		}
	}
}

// TestDirectMutationVisibleAfterDelivery is the other half of the freshness
// contract: a change made on the shard itself, which the router cannot know
// of, shows through the router after one feed delivery — answered from the
// view — and until then a routed read may say what the shard said before it.
func TestDirectMutationVisibleAfterDelivery(t *testing.T) {
	sh := stillShard(t)
	c := &testCluster{router: routerOver(t, sh.srv.URL), shards: []*testShard{sh}}
	c.seedObject(t, 1, 8)
	c.settle(t)
	const path = "/v1/objects/2/blocks/7"
	if rec := c.do(t, http.MethodGet, path, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("before the object exists: %d %s", rec.Code, rec.Body)
	}
	body := map[string]any{"id": 2, "seed": 2002, "blocks": 8, "bitrateBitsPerSec": 4 << 20}
	if rec := doReq(t, sh.g.Handler(), http.MethodPost, "/v1/admin/objects", body); rec.Code != http.StatusCreated {
		t.Fatalf("direct load: %d %s", rec.Code, rec.Body)
	}
	c.settle(t)
	local := c.localReads()
	rec := c.do(t, http.MethodGet, path, nil)
	if diff := sameReply(rec, rawReq(sh.g.Handler(), http.MethodGet, path)); diff != "" || rec.Code != http.StatusOK || c.localReads() != local+1 {
		t.Errorf("after one delivery: %d %s, %d answered from the view; %s", rec.Code, rec.Body, c.localReads()-local, diff)
	}
}

// TestViewReadersDuringLargeDrain races eight readers of a view against its
// follower while it takes the deltas of a 25 k-move drain, for the race
// detector's benefit: every read looks the block up in the view before the
// floor decides whether its answer may be used, so readers and follower meet
// in the locator whether or not the view has caught up with the scale (its
// first delta lists 25 k pending blocks; under the race detector applying it
// can outlast the drain, and every read until then is counted behind). Every
// reply must be a well-formed answer on the array, and once the drain is
// through and delivered the view must answer, and agree with the shard on
// every probed block.
func TestViewReadersDuringLargeDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 128 k blocks")
	}
	const objects, blocks, readers = 64, 2000, 8
	sh := bootShard(t, shardOpts{n0: 8})
	c := &testCluster{router: routerOver(t, sh.srv.URL), shards: []*testShard{sh}}
	c.seedObjects(t, objects, blocks)
	c.settle(t)
	if rec := c.do(t, http.MethodPost, "/v1/scale", map[string]any{"shard": 0, "add": 2}); rec.Code != http.StatusAccepted {
		t.Fatalf("scale: %d %s", rec.Code, rec.Body)
	}
	if pending := sh.g.Status().MigrationRemaining; pending < 20000 {
		t.Logf("the drain started with %d moves pending", pending)
	}
	var stop atomic.Bool
	var reads atomic.Int64
	var wg sync.WaitGroup
	h := c.router.Handler()
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			for i := rd; !stop.Load(); i += readers {
				rec := rawReq(h, http.MethodGet, fmt.Sprintf("/v1/objects/%d/blocks/%d", i%objects, (i*31)%blocks))
				var reply struct {
					Disk    int
					Healthy bool
				}
				if err := jsonDecode(rec, &reply); rec.Code != http.StatusOK || err != nil || reply.Disk < 0 || reply.Disk >= 10 || !reply.Healthy {
					t.Errorf("reader %d: %d %s (%v)", rd, rec.Code, rec.Body, err)
					return
				}
				reads.Add(1)
			}
		}(rd)
	}
	waitFor := time.Now().Add(60 * time.Second)
	for sh.g.Status().Reorganizing || sh.g.Status().MigrationRemaining > 0 {
		if time.Now().After(waitFor) {
			t.Fatalf("the drain did not finish: %d moves pending", sh.g.Status().MigrationRemaining)
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.settle(t)
	stop.Store(true)
	wg.Wait()
	local := c.localReads()
	t.Logf("%d reads until the drain was delivered, %d answered from the view, forwarded %v %v; %d pages applied",
		reads.Load(), local, fwdReasonLabels, c.forwardedReads(), c.router.m.viewApply.Count())
	for id := 0; id < objects; id++ {
		for idx := id; idx < blocks; idx += 97 {
			path := fmt.Sprintf("/v1/objects/%d/blocks/%d", id, idx)
			if diff := sameReply(rawReq(h, http.MethodGet, path), rawReq(sh.g.Handler(), http.MethodGet, path)); diff != "" {
				t.Fatalf("after the drain, GET %s: %s", path, diff)
			}
		}
	}
	if c.localReads() == local {
		t.Error("after the drain no read was answered from the view")
	}
}

// TestViewMetrics checks what the router says of its views: the counters of
// reads answered locally and forwarded by reason add up to the reads made,
// the per-shard view cells and the two cost histograms are exported, and
// GET /v1/cluster/shards shows each view's state and position.
func TestViewMetrics(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	c.seedObjects(t, 16, 4)
	c.settle(t)
	before, fwdBefore := c.localReads(), c.forwardedReads()
	for id := 0; id < 16; id++ {
		c.readVia(t, id, 1)
	}
	if rec := c.do(t, http.MethodGet, "/v1/objects/3/blocks/4", nil); rec.Code != http.StatusNotFound { // a miss: the shard's to answer
		t.Fatalf("past the extent: %d", rec.Code)
	}
	if got, fwd := c.localReads()-before, c.forwardedReads(); got != 16 || fwd[fwdMiss] != fwdBefore[fwdMiss]+1 {
		t.Errorf("16 held blocks and one miss read: %d answered locally, misses forwarded %d → %d", got, fwdBefore[fwdMiss], fwd[fwdMiss])
	}
	samples, err := obs.ParseText(strings.NewReader(c.do(t, http.MethodGet, "/v1/metrics", nil).Body.String()))
	if err != nil {
		t.Fatal(err)
	}
	ms := obs.NewMetricSet(samples)
	local := 0.0
	for i, sh := range c.shards {
		label := shardLabel(i)
		v, _ := ms.LabelValue("cluster_reads_local_total", "shard", label)
		local += v
		if seq, ok := ms.LabelValue("cluster_view_seq", "shard", label); !ok || uint64(seq) != sh.g.Feed().Seq() {
			t.Errorf("cluster_view_seq{shard=%s} = %v, %v; the shard's feed is at %d", label, seq, ok, sh.g.Feed().Seq())
		}
		if syncs, _ := ms.LabelValue("cluster_view_resyncs_total", "shard", label); syncs != 1 {
			t.Errorf("cluster_view_resyncs_total{shard=%s} = %v, want the first snapshot only", label, syncs)
		}
		if refused, ok := ms.LabelValue("cluster_view_refused_total", "shard", label); !ok || refused != 0 {
			t.Errorf("cluster_view_refused_total{shard=%s} = %v, %v", label, refused, ok)
		}
	}
	if uint64(local) != c.localReads() {
		t.Errorf("cluster_reads_local_total sums to %v, the cells to %d", local, c.localReads())
	}
	for _, reason := range fwdReasonLabels {
		if _, ok := ms.LabelValue("cluster_reads_forwarded_total", "reason", reason); !ok {
			t.Errorf("cluster_reads_forwarded_total{reason=%q} is not exported", reason)
		}
	}
	for _, name := range []string{"cluster_view_apply_seconds", "cluster_view_page_bytes"} {
		if h, ok := ms.Histogram(name, "", ""); !ok || h.Count == 0 {
			t.Errorf("%s: %+v, %v; want the deliveries of 16 object loads", name, h, ok)
		}
	}
	var view TopologyView
	decode(t, c.do(t, http.MethodGet, "/v1/cluster/shards", nil), &view)
	for i, sv := range view.Shards {
		if pos := c.shards[i].g.Feed().Pos(); sv.ViewState != "serving" || sv.ViewIncarnation != pos.ID || sv.ViewSeq != pos.Seq || sv.ReadsLocal == 0 {
			t.Errorf("shard %d: view %s at %d-%d, readsLocal %d; the shard's feed is at %v", i, sv.ViewState, sv.ViewIncarnation, sv.ViewSeq, sv.ReadsLocal, pos)
		}
	}
}

// TestViewRefusedWhenItDisagrees builds a shard over another generator family
// than the router's: the view computes other disks than the shard names, the
// self-check on the first snapshot says so, and every read takes the hop —
// counted, logged once, and right.
func TestViewRefusedWhenItDisagrees(t *testing.T) {
	var logged atomic.Int64
	r, err := NewRouter(RouterConfig{ShardTimeout: time.Second, ProbeInterval: -1, Logf: func(format string, args ...any) {
		if line := fmt.Sprintf(format, args...); strings.Contains(line, "view refused") {
			logged.Add(1)
		}
		t.Logf(format, args...)
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	sh := bootShard(t, shardOpts{round: time.Hour, factory: func(seed uint64) prng.Source { return prng.NewXorshift64Star(seed) }})
	c := &testCluster{router: r, shards: []*testShard{sh}}
	if _, _, err := r.AddShard(context.Background(), sh.srv.URL); err != nil {
		t.Fatal(err)
	}
	c.seedObjects(t, 12, 64)
	slot := r.topo.Load().slots[0]
	for start := time.Now(); slot.loc.Pos() != sh.g.Feed().Pos() || slot.viewRefused.Value() == 0; time.Sleep(time.Millisecond) {
		if time.Since(start) > 5*time.Second {
			t.Fatalf("view %s at %v after 12 loads, refused %d times", slot.viewState.Load(), slot.loc.Pos(), slot.viewRefused.Value())
		}
	}
	for id := 0; id < 12; id++ {
		path := fmt.Sprintf("/v1/objects/%d/blocks/%d", id, id*5)
		if diff := sameReply(rawReq(r.Handler(), http.MethodGet, path), rawReq(sh.g.Handler(), http.MethodGet, path)); diff != "" {
			t.Errorf("GET %s: %s", path, diff)
		}
	}
	if slot.view.Load() != nil || c.localReads() != 0 || slot.viewState.Load() != "refused" {
		t.Errorf("a view that disagrees with its shard: state %s, %d reads answered from it", slot.viewState.Load(), c.localReads())
	}
	if n := logged.Load(); n != 1 {
		t.Errorf("the refusal was logged %d times over %d refused checks, want once", n, slot.viewRefused.Value())
	}
}

// TestFollowerAcrossUnpacedDrain follows one shard's locator feed twice — a
// FollowHTTP client on the shard itself and the router's own view — across a
// scale-up nobody plays over, whose rounds therefore run back to back and
// outnumber the feed's ring (1,024 deltas). However far either falls behind,
// every answer on the way is a disk the block was on or is going to (a 410
// resync, and a routed read falling back to the hop, are correct and are
// counted), and once the drain is delivered both agree, block for block, with
// a locator bootstrapped from the shard's snapshot and with the pure function.
func TestFollowerAcrossUnpacedDrain(t *testing.T) {
	const n0, add, objects, blocks = 4, 2, 8, 900
	sh := bootShard(t, shardOpts{n0: n0, cm: func(c *cm.Config) { c.Round = 20 * time.Millisecond }}) // 1 block per disk per round
	c := &testCluster{router: routerOver(t, sh.srv.URL), shards: []*testShard{sh}}
	c.seedObjects(t, objects, blocks)
	c.settle(t)
	loc := dataplane.NewClientLocator(testFactory)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	resyncs, err := loc.FollowHTTP(ctx, http.DefaultClient, sh.srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	// The pure function: each block's disk before and after.
	strat, err := placement.NewScaddar(n0, placement.NewX0Func(testFactory))
	if err != nil {
		t.Fatal(err)
	}
	var before, after [objects][blocks]int
	place := func(into *[objects][blocks]int) {
		for id := range into {
			for idx := range into[id] {
				into[id][idx] = strat.Disk(placement.BlockRef{Seed: uint64(1000 + id), Index: uint64(idx)})
			}
		}
	}
	place(&before)
	if err := strat.AddDisks(add); err != nil {
		t.Fatal(err)
	}
	place(&after)

	var stop atomic.Bool
	var followed, routed atomic.Int64
	var wg sync.WaitGroup
	h := c.router.Handler()
	probe := func(answer func(id, idx int) (int, error), n *atomic.Int64) {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			id, idx := i%objects, (i*31)%blocks
			if d, err := answer(id, idx); err != nil || d != before[id][idx] && d != after[id][idx] {
				t.Errorf("block %d/%d answered disk %d (%v): it was on %d and goes to %d", id, idx, d, err, before[id][idx], after[id][idx])
				return
			}
			n.Add(1)
		}
	}
	wg.Add(2)
	go probe(loc.Locate, &followed)
	go probe(func(id, idx int) (int, error) {
		rec := rawReq(h, http.MethodGet, fmt.Sprintf("/v1/objects/%d/blocks/%d", id, idx))
		var reply struct{ Disk int }
		if err := jsonDecode(rec, &reply); err != nil || rec.Code != http.StatusOK {
			return -1, fmt.Errorf("%d %s (%v)", rec.Code, rec.Body, err)
		}
		return reply.Disk, nil
	}, &routed)
	forwardedBefore := c.forwardedReads()
	if rec := c.do(t, http.MethodPost, "/v1/scale", map[string]any{"shard": 0, "add": add}); rec.Code != http.StatusAccepted {
		t.Fatalf("scale: %d %s", rec.Code, rec.Body)
	}
	for deadline := time.Now().Add(60 * time.Second); sh.g.Status().Reorganizing || sh.g.Status().Disks != n0+add; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the drain did not finish: %d moves pending", sh.g.Status().MigrationRemaining)
		}
	}
	c.settle(t)
	for deadline := time.Now().Add(10 * time.Second); loc.Pos() != sh.g.Feed().Pos(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the follower stands at %+v, the feed at %+v", loc.Pos(), sh.g.Feed().Pos())
		}
	}
	stop.Store(true)
	wg.Wait()
	cancel() // resyncs waits for the follower to exit

	rounds := sh.g.Registry().NewCounterVec("gateway_rounds_total", "", "pace") // registered: these are the gateway's cells
	background, paced := rounds.With("background").Value(), rounds.With("paced").Value()
	t.Logf("%d background rounds (%d on the clock since boot); follower: %d answers, %d resyncs; router: %d answers, forwarded %v %v → %v",
		background, paced, followed.Load(), resyncs(), routed.Load(), fwdReasonLabels, forwardedBefore, c.forwardedReads())
	if background <= 1024 {
		t.Errorf("%d background rounds: the drain did not outrun the feed's ring", background)
	}
	fresh := dataplane.NewClientLocator(testFactory)
	if err := fresh.ApplySnapshot(sh.g.LocatorSnapshotWire()); err != nil {
		t.Fatal(err)
	}
	if loc.Pos() != fresh.Pos() || loc.N() != fresh.N() || loc.PendingCount() != 0 || len(loc.Objects()) != objects {
		t.Errorf("the follower ends at %+v on %d disks with %d pending and %d objects; a bootstrap at %+v on %d",
			loc.Pos(), loc.N(), loc.PendingCount(), len(loc.Objects()), fresh.Pos(), fresh.N())
	}
	for id := 0; id < objects; id++ {
		for idx := 0; idx < blocks; idx++ {
			want := after[id][idx]
			if got, err := loc.Locate(id, idx); err != nil || got != want {
				t.Fatalf("follower: block %d/%d on disk %d (%v), the function says %d", id, idx, got, err, want)
			}
			if got, err := fresh.Locate(id, idx); err != nil || got != want {
				t.Fatalf("bootstrap: block %d/%d on disk %d (%v), the function says %d", id, idx, got, err, want)
			}
			path := fmt.Sprintf("/v1/objects/%d/blocks/%d", id, idx)
			if diff := sameReply(rawReq(h, http.MethodGet, path), rawReq(sh.g.Handler(), http.MethodGet, path)); diff != "" {
				t.Fatalf("router: GET %s: %s", path, diff)
			}
		}
	}
}
