package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// stillShard boots a shard whose round driver never ticks within a test, so
// a migration it starts stays pending and a session it admits keeps playing.
func stillShard(t *testing.T) *testShard { return bootShard(t, shardOpts{round: time.Hour}) }

// httpReply is what the differential test compares of one reply.
type httpReply struct {
	status             int
	contentType, shard string
	retryAfter         bool
	body               string
}

func fetch(t *testing.T, method, url string) httpReply {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return httpReply{status: resp.StatusCode, contentType: resp.Header.Get("Content-Type"),
		shard: resp.Header.Get(ShardHeader), retryAfter: resp.Header.Get("Retry-After") != "", body: string(body)}
}

// TestRoutedReadMatchesDirect is the contract of the routed read: for one
// gateway asked both ways over real sockets, the reply the router builds —
// from its view of the shard, from an OpLocate answer when the view is shut
// and every read takes the hop, or in its own words where the wire's u32
// fields cannot carry the question — is the reply the shard's own handler
// writes: status, Content-Type, Retry-After presence, body bytes. Every routed
// reply that names an object carries the shard stamp.
func TestRoutedReadMatchesDirect(t *testing.T) {
	sh := stillShard(t)
	r := routerOver(t, sh.srv.URL)
	front := httptest.NewServer(r.Handler())
	t.Cleanup(front.Close)
	c := &testCluster{router: r, shards: []*testShard{sh}}
	c.seedObject(t, 7, 64)

	check := func(name, method, path string, wantStatus int, wantIn string, textMayDiffer bool) {
		t.Helper()
		direct, routed := fetch(t, method, sh.srv.URL+path), fetch(t, method, front.URL+path)
		wantShard := "0"
		if strings.Contains(path, "seven") {
			wantShard = "" // no object, so no owner to name: answered before routing, as ever
		}
		if routed.shard != wantShard {
			t.Errorf("%s: %s = %q, want %q", name, ShardHeader, routed.shard, wantShard)
		}
		routed.shard = ""
		if textMayDiffer {
			direct.body, routed.body = "", ""
		}
		if direct != routed || direct.status != wantStatus || !strings.Contains(direct.body, wantIn) {
			t.Errorf("%s: %s %s\n direct %+v\n routed %+v\n want status %d and %q in the body",
				name, method, path, direct, routed, wantStatus, wantIn)
		}
	}
	const big = 1 << 32
	slot := r.topo.Load().slots[0]
	cases := func(state, okBody string) {
		t.Helper()
		c.settle(t) // the state was set on the shard directly: one feed delivery
		// Once with the view serving — the block and its HEAD are answered from
		// it, everything else is the shard's to answer — and once with it shut.
		for _, via := range []string{"view", "hop"} {
			state, local := state+" by "+via, slot.readsLocal.Value()
			check(state+": block", "GET", "/v1/objects/7/blocks/3", 200, okBody, false)
			check(state+": HEAD", "HEAD", "/v1/objects/7/blocks/3", 200, "", false)
			check(state+": unknown object", "GET", "/v1/objects/8/blocks/0", 404, "unknown object", false)
			check(state+": past the extent", "GET", "/v1/objects/7/blocks/64", 404, "no block 64", false)
			check(state+": idx -1", "GET", "/v1/objects/7/blocks/-1", 404, "no block -1", false)
			check(state+": idx 2^32", "GET", fmt.Sprintf("/v1/objects/7/blocks/%d", big), 404, "no block 4294967296", false)
			check(state+": id 2^32", "GET", fmt.Sprintf("/v1/objects/%d/blocks/0", big), 404, "object 4294967296", false)
			check(state+": id -1", "GET", "/v1/objects/-1/blocks/0", 404, "object -1", false)
			check(state+": bad id", "GET", "/v1/objects/seven/blocks/0", 400, `bad id \"seven\"`, false)
			check(state+": bad idx", "GET", "/v1/objects/7/blocks/three", 400, `bad idx \"three\"`, false)
			// The one place the text differs (docs/PROTOCOL.md §10: message text
			// is not contractual): an index the wire cannot carry, of an object
			// the shard does not hold. The router cannot know the second half
			// without the hop it is sparing, and says "out of range" where the
			// shard, which looks the object up first, says "unknown object".
			check(state+": idx 2^32 of an unknown object", "GET", fmt.Sprintf("/v1/objects/8/blocks/%d", big), 404, "", true)
			if got, want := slot.readsLocal.Value()-local, map[string]uint64{"view": 2, "hop": 0}[via]; got != want {
				t.Errorf("%s: %d reads answered from the view, want %d", state, got, want)
			}
			slot.view.Store(nil)
		}
		slot.view.Store(slot.loc)
	}
	cases("healthy", `"healthy":true,"reorganizing":false`)

	// Start a scale-up nothing will drain: every read is mid-reorganization.
	if rec := doReq(t, sh.g.Handler(), "POST", "/v1/scale", map[string]any{"add": 2}); rec.Code != http.StatusAccepted {
		t.Fatalf("scale: status %d: %s", rec.Code, rec.Body)
	}
	cases("reorganizing", `"healthy":true,"reorganizing":true`)

	// Fail the disk that holds block 3; its reads say so.
	var loc struct{ Disk int }
	decode(t, doReq(t, sh.g.Handler(), "GET", "/v1/objects/7/blocks/3", nil), &loc)
	if rec := doReq(t, sh.g.Handler(), "POST", fmt.Sprintf("/v1/disks/%d/fail", loc.Disk), nil); rec.Code != http.StatusAccepted {
		t.Fatalf("fail disk %d: status %d: %s", loc.Disk, rec.Code, rec.Body)
	}
	cases("failed disk", `"healthy":false,"reorganizing":true`)
}

// TestRoutedReadWhileShardDrains checks a routed read is answered while the
// shard's Shutdown waits on a playing session, exactly as a direct HTTP read
// is — on a connection upgraded before the drain began and on one upgraded
// during it. The binary server's draining refusal belongs to its dedicated
// listener; an upgraded connection that inherited it would answer 500 here.
func TestRoutedReadWhileShardDrains(t *testing.T) {
	sh := stillShard(t)
	r := routerOver(t, sh.srv.URL)
	c := &testCluster{router: r, shards: []*testShard{sh}}
	c.seedObject(t, 7, 64)
	if rec := c.do(t, "POST", "/v1/sessions", map[string]any{"object": 7}); rec.Code != http.StatusCreated {
		t.Fatalf("open session: status %d: %s", rec.Code, rec.Body)
	}
	c.readVia(t, 7, 3) // pools an upgraded connection

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- sh.g.Shutdown(ctx) }()
	for !sh.g.Draining() {
		time.Sleep(time.Millisecond)
	}
	for _, conn := range []string{"pooled", "fresh"} {
		rec := c.do(t, "GET", "/v1/objects/7/blocks/3", nil)
		direct := doReq(t, sh.g.Handler(), "GET", "/v1/objects/7/blocks/3", nil)
		if rec.Code != http.StatusOK || rec.Body.String() != direct.Body.String() {
			t.Errorf("read on a %s connection while the shard drains: %d %s, direct %d %s",
				conn, rec.Code, rec.Body, direct.Code, direct.Body)
		}
		r.topo.Load().slots[0].closeIdle()
	}
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned %v with a session still playing", err)
	default:
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Errorf("Shutdown: %v, want context.Canceled", err)
	}
}
