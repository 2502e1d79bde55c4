package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"scaddar/internal/cm"
	"scaddar/internal/dataplane"
)

// What the locator feed owes a follower that is a server (a cluster router's
// view of this gateway): a poll that does not outlive the round driver, a
// wait it can bound, a cursor that cannot cross incarnations, the disks'
// health, and the stamp on every mutation's reply.

// pollDeltas performs one delta poll and decodes a 200's page.
func pollDeltas(t testing.TB, base, query string) (int, dataplane.DeltaPage) {
	t.Helper()
	resp, err := http.Get(base + "/v1/locator/deltas?" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var page dataplane.DeltaPage
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &page); err != nil {
			t.Fatalf("deltas?%s: 200 with a body that is no page: %v: %s", query, err, body)
		}
	}
	return resp.StatusCode, page
}

// stillGateway is a gateway whose round driver never ticks within a test,
// served over a socket.
func stillGateway(t testing.TB, mutate func(*cm.Config)) (*Gateway, *httptest.Server) {
	t.Helper()
	g := newTestGateway(t, 6, 4, 80, mutate, func(c *Config) { c.Round = time.Hour })
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)
	return g, ts
}

// TestShutdownAnswersParkedPoll is the stopping gateway's side of the feed: a
// long-poll parked on an idle feed is answered — a well-formed, empty 200 —
// when the round driver stops, so the HTTP server's Shutdown behind it does not
// sit out the rest of the poll's wait (30 s at the parent, reported as a
// request still in flight when the drain budget was shorter); a poll that
// arrives afterwards is refused like any request to a stopped gateway.
func TestShutdownAnswersParkedPoll(t *testing.T) {
	g, ts := stillGateway(t, nil)
	type reply struct {
		status int
		page   dataplane.DeltaPage
	}
	polled := make(chan reply, 1)
	go func() {
		status, page := pollDeltas(t, ts.URL, fmt.Sprintf("after=%d", g.Feed().Seq()))
		polled <- reply{status, page}
	}()
	for g.m.deltaPolls.Value() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // into Feed.Wait
	select {
	case r := <-polled:
		t.Fatalf("the poll did not park: %+v", r)
	default:
	}

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := g.Shutdown(ctx); err != nil {
		t.Fatalf("gateway Shutdown: %v", err)
	}
	if err := ts.Config.Shutdown(ctx); err != nil {
		t.Fatalf("HTTP Shutdown with a parked poll: %v", err)
	}
	if took := time.Since(start); took > 200*time.Millisecond {
		t.Errorf("shutdown with a parked poll took %s, want < 200ms", took)
	}
	r := <-polled
	if r.status != http.StatusOK || len(r.page.Deltas) != 0 || r.page.Seq != g.Feed().Seq() || r.page.Incarnation != g.Feed().Pos().ID {
		t.Errorf("the parked poll got %d %+v, want an empty page at the feed's position %+v", r.status, r.page, g.Feed().Pos())
	}
	rec, _ := doJSON(t, g.Handler(), "GET", fmt.Sprintf("/v1/locator/deltas?after=%d", g.Feed().Seq()), nil)
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Errorf("a poll of a stopped gateway: %d (Retry-After %q), want 503", rec.Code, rec.Header().Get("Retry-After"))
	}
}

// TestDeltaPollWaitAndCursor covers the poll's query: wait bounds the park, a
// cursor of another incarnation or beyond the feed is 410 at once, and the
// three numbers are numbers.
func TestDeltaPollWaitAndCursor(t *testing.T) {
	g, ts := stillGateway(t, nil)
	pos := g.Feed().Pos()
	start := time.Now()
	status, page := pollDeltas(t, ts.URL, fmt.Sprintf("incarnation=%d&after=%d&wait=30", pos.ID, pos.Seq))
	if took := time.Since(start); status != http.StatusOK || len(page.Deltas) != 0 || page.Incarnation != pos.ID ||
		took < 30*time.Millisecond || took > 5*time.Second {
		t.Errorf("wait=30 on an idle feed: %d %+v after %s, want an empty page after 30ms", status, page, took)
	}
	for _, query := range []string{
		fmt.Sprintf("incarnation=%d&after=%d", pos.ID+2, pos.Seq), // a feed this process never was
		fmt.Sprintf("incarnation=%d&after=%d", pos.ID, pos.Seq+1), // ahead of it
		fmt.Sprintf("after=%d", pos.Seq+7),
	} {
		start := time.Now()
		if status, _ := pollDeltas(t, ts.URL, query); status != http.StatusGone || time.Since(start) > time.Second {
			t.Errorf("deltas?%s: %d after %s, want 410 at once", query, status, time.Since(start))
		}
	}
	for _, query := range []string{"wait=soon", "incarnation=-1", "after=x"} {
		if status, _ := pollDeltas(t, ts.URL, query); status != http.StatusBadRequest {
			t.Errorf("deltas?%s: %d, want 400", query, status)
		}
	}
}

// TestMutationsStampFeedPosition checks every mutating route stamps its reply
// with the feed position that includes the mutation — the snapshot served at
// that position already shows it — and that nothing else is stamped. A repair
// changes nothing a follower can see (the disk goes from failed to rebuilding,
// unhealthy either way), so it is stamped with the position it found.
func TestMutationsStampFeedPosition(t *testing.T) {
	g, ts := stillGateway(t, func(c *cm.Config) { c.Redundancy = cm.RedundancyMirror })
	h := g.Handler()
	stamp := func(method, path string, body any, wantStatus int) dataplane.FeedPos {
		t.Helper()
		before := g.Feed().Pos()
		rec, _ := doJSON(t, h, method, path, body)
		pos, ok := dataplane.ParseFeedPos(rec.Header().Get(dataplane.FeedHeader))
		delivered := pos.Seq > before.Seq
		if rec.Code != wantStatus || !ok || pos != g.Feed().Pos() || delivered == (path == "/v1/disks/2/repair") {
			t.Fatalf("%s %s: %d, stamp %q; want %d stamped with the feed's position after it (%+v → %+v)",
				method, path, rec.Code, rec.Header().Get(dataplane.FeedHeader), wantStatus, before, g.Feed().Pos())
		}
		return pos
	}
	pos := stamp("POST", "/v1/admin/objects", map[string]any{"id": 77, "seed": 7777, "blocks": 8, "bitrateBitsPerSec": 1 << 20}, http.StatusCreated)
	if snap := fetchWireSnapshot(t, ts.URL); snap.Seq != pos.Seq || !slices.ContainsFunc(snap.Objects, func(o dataplane.ObjectInfo) bool { return o.ID == 77 }) {
		t.Errorf("the snapshot at the stamp %+v is at %d and lacks the object the stamped request added", pos, snap.Seq)
	}
	stamp("DELETE", "/v1/admin/objects/77", nil, http.StatusOK)
	pos = stamp("POST", "/v1/scale", map[string]any{"add": 2}, http.StatusAccepted)
	if snap := fetchWireSnapshot(t, ts.URL); snap.Seq != pos.Seq || !snap.Reorganizing || snap.N != 8 {
		t.Errorf("the snapshot at the scale's stamp: seq %d n %d reorganizing %v", snap.Seq, snap.N, snap.Reorganizing)
	}
	stamp("POST", "/v1/disks/2/fail", nil, http.StatusAccepted)
	if snap := fetchWireSnapshot(t, ts.URL); !slices.Equal(snap.Unhealthy, []int{2}) {
		t.Errorf("after failing disk 2 the snapshot lists unhealthy disks %v", snap.Unhealthy)
	}
	stamp("POST", "/v1/disks/2/repair", nil, http.StatusAccepted)
	for _, path := range []string{"/v1/objects/0/blocks/1", "/v1/status", "/v1/locator/snapshot", "/v1/admin/objects"} {
		if rec, _ := doJSON(t, h, "GET", path, nil); rec.Header().Get(dataplane.FeedHeader) != "" {
			t.Errorf("GET %s is stamped %q: only a mutation's reply is", path, rec.Header().Get(dataplane.FeedHeader))
		}
	}
}

// TestHealthFollowsRebuild follows a disk through fail → repair → rebuilt in
// the two places a reader sees its health: the gateway's own block-read reply
// and the feed's snapshot. Both must come back to healthy when the rebuild
// ends — at the parent the round that ended it republished nothing, and the
// gateway answered healthy:false for the disk until the next operator command —
// and every change must reach the feed as a delivery, not wait for one.
func TestHealthFollowsRebuild(t *testing.T) {
	g := newTestGateway(t, 6, 4, 80, func(c *cm.Config) { c.Redundancy = cm.RedundancyMirror }, nil)
	h := g.Handler()
	_, body := doJSON(t, h, "GET", "/v1/objects/0/blocks/5", nil)
	d := int(body["disk"].(float64))
	healthy := func() bool {
		_, body := doJSON(t, h, "GET", "/v1/objects/0/blocks/5", nil)
		return body["healthy"].(bool)
	}
	for _, verb := range []string{"fail", "repair"} {
		seq := g.Feed().Seq()
		if rec, _ := doJSON(t, h, "POST", fmt.Sprintf("/v1/disks/%d/%s", d, verb), nil); rec.Code != http.StatusAccepted {
			t.Fatalf("%s = %d %s", verb, rec.Code, rec.Body)
		}
		delivered := g.Feed().Seq() > seq // the failure is news; failed → rebuilding is not
		if snap := g.LocatorSnapshotWire(); delivered != (verb == "fail") || !slices.Equal(snap.Unhealthy, []int{d}) || healthy() {
			t.Fatalf("after %s: feed %d → %d, snapshot unhealthy %v, read healthy %v; want disk %d listed, delivered by the failure",
				verb, seq, g.Feed().Seq(), snap.Unhealthy, healthy(), d)
		}
	}
	waitStatus(t, g, "rebuild", func(st Status) bool { return !st.Degraded })
	deadline := time.Now().Add(5 * time.Second)
	for !healthy() || g.LocatorSnapshotWire().Unhealthy != nil {
		if time.Now().After(deadline) {
			t.Fatalf("rebuilt, yet the read says healthy %v and the snapshot lists %v", healthy(), g.LocatorSnapshotWire().Unhealthy)
		}
		time.Sleep(time.Millisecond)
	}
	// The last delivery is the one that says so: a follower at the feed's head
	// holds the healthy array.
	loc := dataplane.NewClientLocator(testFactory)
	if err := loc.ApplySnapshot(g.LocatorSnapshotWire()); err != nil {
		t.Fatal(err)
	}
	if a, ok := loc.Answer(0, 5); !ok || a.Disk != d || !a.Healthy || a.Pos != g.Feed().Pos() {
		t.Errorf("a follower at the head answers %+v, %v; want disk %d healthy at %+v", a, ok, d, g.Feed().Pos())
	}
}

// gatedDeltas is an http.RoundTripper that holds every delta poll until the
// test lets one through: a follower behind it is as far behind as the test
// wants.
type gatedDeltas struct {
	next http.RoundTripper
	pass chan struct{}
}

func (g gatedDeltas) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path == "/v1/locator/deltas" {
		select {
		case <-g.pass:
		case <-r.Context().Done():
			return nil, r.Context().Err()
		}
	}
	return g.next.RoundTrip(r)
}

// TestFollowerBehindSnapshotNeverResyncs holds a FollowHTTP client one page
// behind a gateway across an object load, a scale-up and a scale-down: each
// poll it is allowed finds its cursor older than the ring (which begins at the
// newest snapshot delta), is answered with the ring, and leaves the follower
// agreeing with the gateway's own locator on every block — without a 410, so
// without a resync. Truncating the ring and keeping the 410 (ROADMAP's dead
// end) resynced it at each of the three.
func TestFollowerBehindSnapshotNeverResyncs(t *testing.T) {
	g, ts := newStreamGateway(t, 4, 2, 200, nil)
	gate := gatedDeltas{next: http.DefaultTransport, pass: make(chan struct{})}
	loc := dataplane.NewClientLocator(testFactory)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	resyncs, err := loc.FollowHTTP(ctx, &http.Client{Transport: gate}, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	wrong := 0
	catchUp := func(what string) {
		t.Helper()
		page, _, err := g.Feed().Since(loc.Pos())
		if err != nil || len(page) == 0 || page[0].Kind != dataplane.DeltaSnapshot || page[0].Seq <= loc.Seq()+1 {
			t.Fatalf("after %s the follower at %d is not behind the ring: %d deltas, %v", what, loc.Seq(), len(page), err)
		}
		gate.pass <- struct{}{}
		head := g.Feed().Pos() // idle rounds publish nothing: the feed stands still
		deadline := time.Now().Add(10 * time.Second)
		for loc.Pos() != head {
			if time.Now().After(deadline) {
				t.Fatalf("after %s the follower stands at %+v, the feed at %+v", what, loc.Pos(), head)
			}
			time.Sleep(time.Millisecond)
		}
		sn := g.Snapshot()
		for _, o := range loc.Objects() {
			for idx := 0; idx < o.Blocks; idx++ {
				want, werr := sn.Locate(o.ID, idx)
				if got, err := loc.Locate(o.ID, idx); err != nil || werr != nil || got != want {
					wrong++
				}
			}
		}
		if len(loc.Objects()) != len(sn.Objects()) || loc.N() != sn.N() {
			t.Errorf("after %s the follower holds %d objects on %d disks, the gateway %d on %d", what, len(loc.Objects()), loc.N(), len(sn.Objects()), sn.N())
		}
	}
	h := g.Handler()
	for _, obj := range []int{77, 78} { // two snapshot deltas: the first alone is the follower's next
		if rec, _ := doJSON(t, h, "POST", "/v1/admin/objects", map[string]any{"id": obj, "seed": 7000 + obj, "blocks": 40, "bitrateBitsPerSec": 1 << 20}); rec.Code != http.StatusCreated {
			t.Fatalf("add object %d: %d %s", obj, rec.Code, rec.Body)
		}
	}
	catchUp("two object loads")
	if rec, _ := doJSON(t, h, "POST", "/v1/scale", map[string]any{"add": 2}); rec.Code != http.StatusAccepted {
		t.Fatalf("scale up: %d %s", rec.Code, rec.Body)
	}
	waitStatus(t, g, "scale-up drain", func(st Status) bool { return !st.Reorganizing && st.Disks == 6 })
	catchUp("a scale-up")
	if rec, _ := doJSON(t, h, "POST", "/v1/scale", map[string]any{"remove": []int{1, 4}}); rec.Code != http.StatusAccepted {
		t.Fatalf("scale down: %d %s", rec.Code, rec.Body)
	}
	waitStatus(t, g, "scale-down drain", func(st Status) bool { return !st.Reorganizing && st.Disks == 4 })
	catchUp("a scale-down")
	cancel()
	if n := resyncs(); n != 0 || wrong != 0 {
		t.Errorf("%d resyncs and %d wrong Locates, want none of either", n, wrong)
	}
}
