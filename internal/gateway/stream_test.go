package gateway

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"scaddar/internal/cm"
	"scaddar/internal/dataplane"
)

// newStreamGateway builds a gateway whose server has real payload stores
// of 4 KiB blocks attached, plus a live httptest server over its handler.
func newStreamGateway(t testing.TB, n0, objects, blocks int, gmutate func(*Config)) (*Gateway, *httptest.Server) {
	t.Helper()
	return newStreamGatewayOf(t, n0, objects, blocks, 4<<10, gmutate)
}

// newStreamGatewayOf is newStreamGateway at a given block size.
func newStreamGatewayOf(t testing.TB, n0, objects, blocks int, blockBytes int64, gmutate func(*Config)) (*Gateway, *httptest.Server) {
	t.Helper()
	return newStreamGatewayWith(t, n0, objects, blocks, func(c *cm.Config) { c.BlockBytes = blockBytes }, gmutate)
}

// newStreamGatewayWith is newStreamGateway over a server configured by mutate.
func newStreamGatewayWith(t testing.TB, n0, objects, blocks int, mutate func(*cm.Config), gmutate func(*Config)) (*Gateway, *httptest.Server) {
	t.Helper()
	srv := newTestServer(t, n0, objects, blocks, mutate)
	mgr, err := dataplane.NewManager(t.TempDir(), dataplane.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	if err := srv.AttachPayloads(mgr.Factory(), dataplane.SeededContent); err != nil {
		t.Fatal(err)
	}
	gcfg := Config{Factory: testFactory, Round: 2 * time.Millisecond}
	if gmutate != nil {
		gmutate(&gcfg)
	}
	g, err := New(srv, gcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)
	return g, ts
}

// openSession opens a streaming session for an object and returns its ID.
func openSession(t testing.TB, base string, object int) int {
	t.Helper()
	return postSession(t, base, fmt.Sprintf(`{"object":%d}`, object))
}

// openPausedSession opens a session that starts playing, from block 0, only
// when its stream is attached.
func openPausedSession(t testing.TB, base string, object int) int {
	t.Helper()
	return postSession(t, base, fmt.Sprintf(`{"object":%d, "paused": true}`, object))
}

// postSession posts a session request and returns the admitted session's ID.
func postSession(t testing.TB, base, request string) int {
	t.Helper()
	resp, err := http.Post(base+"/v1/sessions", "application/json", strings.NewReader(request))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("open session: %d %s", resp.StatusCode, b)
	}
	var out struct {
		Session int `json:"session"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Session
}

// fetchWireSnapshot fetches the locator snapshot endpoint.
func fetchWireSnapshot(t testing.TB, base string) *dataplane.Snapshot {
	t.Helper()
	resp, err := http.Get(base + "/v1/locator/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d", resp.StatusCode)
	}
	var snap dataplane.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return &snap
}

// TestStreamEndToEnd plays one session over HTTP: every frame must verify
// against the content oracle at its block index, frames must be in playback
// order, and the stream must terminate with a "done" end frame.
func TestStreamEndToEnd(t *testing.T) {
	_, ts := newStreamGateway(t, 4, 2, 8, nil)
	snap := fetchWireSnapshot(t, ts.URL)
	if len(snap.Objects) != 2 {
		t.Fatalf("snapshot has %d objects, want 2", len(snap.Objects))
	}
	obj := snap.Objects[0]
	id := openSession(t, ts.URL, obj.ID)

	resp, err := http.Get(fmt.Sprintf("%s/v1/sessions/%d/stream", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	last := -1
	got := 0
	for {
		f, err := dataplane.ReadFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", got, err)
		}
		if f.End {
			if f.Reason != dataplane.CloseDone {
				t.Fatalf("end reason %v, want done", f.Reason)
			}
			break
		}
		if f.Index <= last {
			t.Fatalf("frame order: index %d after %d", f.Index, last)
		}
		if int64(len(f.Data)) != obj.BlockBytes {
			t.Fatalf("frame %d: %d bytes, want %d", f.Index, len(f.Data), obj.BlockBytes)
		}
		if !dataplane.VerifySeededContent(f.Data, obj.Seed, uint64(f.Index)) {
			t.Fatalf("frame %d: bytes do not match the oracle", f.Index)
		}
		last = f.Index
		got++
	}
	if got == 0 {
		t.Fatal("stream delivered no frames")
	}
	if last != obj.Blocks-1 {
		t.Fatalf("stream ended at block %d, want %d", last, obj.Blocks-1)
	}
}

// TestStreamPausedOpen pins the paused-open contract: a session opened with
// {"paused": true} holds its admission slot but is not served — rounds may
// pass, nothing is delivered — and the stream attach resumes it, so the
// consumer receives every block from index 0 with no admission-to-attach
// head drop.
func TestStreamPausedOpen(t *testing.T) {
	g, ts := newStreamGateway(t, 4, 1, 8, nil)
	snap := fetchWireSnapshot(t, ts.URL)
	obj := snap.Objects[0]

	body := strings.NewReader(fmt.Sprintf(`{"object":%d, "paused": true}`, obj.ID))
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Session int    `json:"session"`
		State   string `json:"state"`
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open paused: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if out.State != "paused" {
		t.Fatalf("opened state %q, want paused", out.State)
	}

	// Let the pacer run: a paused stream must not advance or deliver.
	start := g.Status().Rounds
	for g.Status().Rounds < start+5 {
		time.Sleep(time.Millisecond)
	}
	if n := g.Status().Gateway.StreamChunks; n != 0 {
		t.Fatalf("paused stream delivered %d chunks before attach", n)
	}
	v, err := g.exec(t.Context(), false, func(s *cm.Server) (any, error) {
		return s.Stream(out.Session)
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := v.(*cm.Stream); st.State != cm.StreamPaused || st.Position != 0 || st.Served != 0 {
		t.Fatalf("before attach: state %v position %d served %d, want paused 0 0", st.State, st.Position, st.Served)
	}

	// Attach resumes; every block arrives from index 0.
	sresp, err := http.Get(fmt.Sprintf("%s/v1/sessions/%d/stream", ts.URL, out.Session))
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", sresp.StatusCode)
	}
	br := bufio.NewReader(sresp.Body)
	next := 0
	for {
		f, err := dataplane.ReadFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", next, err)
		}
		if f.End {
			if f.Reason != dataplane.CloseDone {
				t.Fatalf("end reason %v, want done", f.Reason)
			}
			break
		}
		if f.Index != next {
			t.Fatalf("frame index %d, want %d (paused open must not drop head chunks)", f.Index, next)
		}
		if !dataplane.VerifySeededContent(f.Data, obj.Seed, uint64(f.Index)) {
			t.Fatalf("frame %d: bytes do not match the oracle", f.Index)
		}
		next++
	}
	if next != obj.Blocks {
		t.Fatalf("received %d blocks, want %d", next, obj.Blocks)
	}
}

// TestStreamSecondConsumerConflicts verifies that a session's stream admits
// exactly one consumer.
func TestStreamSecondConsumerConflicts(t *testing.T) {
	_, ts := newStreamGateway(t, 4, 1, 400, nil)
	snap := fetchWireSnapshot(t, ts.URL)
	id := openSession(t, ts.URL, snap.Objects[0].ID)

	url := fmt.Sprintf("%s/v1/sessions/%d/stream", ts.URL, id)
	first, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Body.Close()
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first consumer: status %d", first.StatusCode)
	}
	second, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Body.Close()
	if second.StatusCode != http.StatusConflict {
		t.Fatalf("second consumer: status %d, want 409", second.StatusCode)
	}
	// Unknown sessions are a clean 404, not a hung stream.
	resp, err := http.Get(ts.URL + "/v1/sessions/99999/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session: status %d, want 404", resp.StatusCode)
	}
}

// TestStreamSlowClientEvicted opens a stream and never reads it: once the
// socket and session buffers fill, every round is a deadline miss, and the
// consecutive-miss limit must evict the session rather than stall the round
// driver. The unread response must end with an "evicted" frame.
func TestStreamSlowClientEvicted(t *testing.T) {
	g, ts := newStreamGateway(t, 4, 1, 100000, func(c *Config) {
		c.StreamBuffer = 1
		c.StreamEvictAfter = 4
	})
	snap := fetchWireSnapshot(t, ts.URL)
	id := openSession(t, ts.URL, snap.Objects[0].ID)

	resp, err := http.Get(fmt.Sprintf("%s/v1/sessions/%d/stream", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	waitStatus(t, g, "slow client eviction", func(st Status) bool {
		return st.Gateway.StreamEvictions >= 1
	})
	if g.Status().Gateway.StreamMisses < 4 {
		t.Fatalf("misses %d, want >= 4", g.Status().Gateway.StreamMisses)
	}
	// Drain what the socket buffered; the tail must be the evicted frame.
	br := bufio.NewReader(resp.Body)
	for {
		f, err := dataplane.ReadFrame(br)
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
		if f.End {
			if f.Reason != dataplane.CloseEvicted {
				t.Fatalf("end reason %v, want evicted", f.Reason)
			}
			break
		}
	}
	// The server-side stream must be stopped, not playing for nobody.
	waitStatus(t, g, "stream stop after eviction", func(st Status) bool {
		return st.ActiveStreams == 0
	})
}

// TestLocatorDeltaTracking drives a scale-up while a client tracks placement
// purely through the snapshot+delta side channel; after the reorganization
// drains, the client's locator must agree with the gateway's snapshot for
// every block, without one per-block request during the drain.
func TestLocatorDeltaTracking(t *testing.T) {
	g, ts := newStreamGateway(t, 4, 2, 200, nil)
	loc := dataplane.NewClientLocator(testFactory)
	snap := fetchWireSnapshot(t, ts.URL)
	if err := loc.ApplySnapshot(snap); err != nil {
		t.Fatal(err)
	}

	rec, out := doJSON(t, g.Handler(), http.MethodPost, "/v1/scale", map[string]any{"add": 2})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("scale: %d %v", rec.Code, out)
	}

	// Follow the feed until the post-scale baseline (N=6, not reorganizing)
	// has been applied.
	deadline := time.Now().Add(30 * time.Second)
	after := loc.Seq()
	for loc.N() != 6 || loc.PendingCount() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("reorg never converged: n=%d pending=%d", loc.N(), loc.PendingCount())
		}
		resp, err := http.Get(fmt.Sprintf("%s/v1/locator/deltas?after=%d", ts.URL, after))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			t.Fatalf("deltas: status %d", resp.StatusCode)
		}
		var dr dataplane.DeltaPage
		if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		for _, d := range dr.Deltas {
			if err := loc.Apply(d); err != nil {
				t.Fatalf("apply delta %d (%s): %v", d.Seq, d.Kind, err)
			}
		}
		after = dr.Seq
	}

	// The tracked locator must agree with the server's everywhere.
	sn := g.Snapshot()
	for _, o := range snap.Objects {
		for idx := 0; idx < o.Blocks; idx++ {
			want, err := sn.Locate(o.ID, idx)
			if err != nil {
				t.Fatal(err)
			}
			got, err := loc.Locate(o.ID, idx)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("object %d block %d: client says disk %d, server %d", o.ID, idx, got, want)
			}
		}
	}
	if g.Status().Gateway.DeltasPublished == 0 {
		t.Fatal("no deltas were published during the reorganization")
	}

	// Malformed cursors are rejected, not treated as zero.
	resp, err := http.Get(ts.URL + "/v1/locator/deltas?after=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad cursor: status %d, want 400", resp.StatusCode)
	}
}

// TestStreamSurvivesScaleUp plays a session across a live scale-up: chunks
// must keep verifying against the oracle while blocks migrate under the
// stream.
func TestStreamSurvivesScaleUp(t *testing.T) {
	g, ts := newStreamGateway(t, 4, 1, 60, nil)
	snap := fetchWireSnapshot(t, ts.URL)
	obj := snap.Objects[0]
	id := openSession(t, ts.URL, obj.ID)

	resp, err := http.Get(fmt.Sprintf("%s/v1/sessions/%d/stream", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	rec, out := doJSON(t, g.Handler(), http.MethodPost, "/v1/scale", map[string]any{"add": 2})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("scale: %d %v", rec.Code, out)
	}

	br := bufio.NewReader(resp.Body)
	frames := 0
	for {
		f, err := dataplane.ReadFrame(br)
		if err != nil {
			t.Fatalf("frame: %v", err)
		}
		if f.End {
			if f.Reason != dataplane.CloseDone {
				t.Fatalf("end reason %v, want done", f.Reason)
			}
			break
		}
		if !dataplane.VerifySeededContent(f.Data, obj.Seed, uint64(f.Index)) {
			t.Fatalf("frame %d: bytes do not match the oracle", f.Index)
		}
		frames++
	}
	if frames == 0 {
		t.Fatal("no frames before completion")
	}
	waitStatus(t, g, "scale-up drain", func(st Status) bool { return !st.Reorganizing && st.Disks == 6 })
}

// TestLocatorSnapshotBuiltOnDemand: during a drain the owner publishes only
// a {base export, pending view, sequence} tuple per round; the wire snapshot
// is built by whoever asks for it. Checked from inside the owner goroutine,
// where the published tuple and the server cannot disagree: the snapshot
// built from the tuple equals a fresh full export, carries the feed's current
// sequence, and is built once per sequence. A tuple kept unbuilt from early
// in the drain must still build to what the export said that round — a
// published snapshot is a point-in-time value whenever it is materialised.
func TestLocatorSnapshotBuiltOnDemand(t *testing.T) {
	g := newTestGateway(t, 4, 4, 2000, func(c *cm.Config) { c.Round = 100 * time.Millisecond }, nil)
	// A playing stream (2,000 rounds of it) keeps the drain on the Round
	// clock; with nothing playing its rounds run back to back and the Execs
	// below would land in one or two of them.
	if _, err := g.Exec(context.Background(), func(s *cm.Server) (any, error) {
		return s.StartStream(g.LocatorSnapshotWire().Objects[0].ID)
	}); err != nil {
		t.Fatal(err)
	}
	rec, out := doJSON(t, g.Handler(), http.MethodPost, "/v1/scale", map[string]any{"add": 2})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("scale: %d %v", rec.Code, out)
	}
	planned := int(out["moves"].(float64))
	samePending := func(got []dataplane.PendingBlock, want []cm.PendingMove) error {
		if len(got) != len(want) {
			return fmt.Errorf("wire snapshot lists %d pending blocks, export %d", len(got), len(want))
		}
		for i, p := range want {
			if got[i] != (dataplane.PendingBlock{Object: p.Object, Index: int(p.Index), From: p.From}) {
				return fmt.Errorf("pending[%d] = %+v, export has %+v", i, got[i], p)
			}
		}
		return nil
	}
	var early *func() *dataplane.Snapshot
	var earlyWant []cm.PendingMove
	midDrain := map[int]bool{}
	for deadline := time.Now().Add(30 * time.Second); ; {
		v, err := g.Exec(context.Background(), func(s *cm.Server) (any, error) {
			want, err := s.LocatorStateExport()
			if err != nil {
				return nil, err
			}
			if n := len(want.Pending); early == nil && n > 0 && n < planned {
				// Nobody has fetched this round's snapshot: keep it unbuilt.
				early, earlyWant = g.dp.wire.Load(), want.Pending
				return false, nil
			}
			wire := g.LocatorSnapshotWire()
			if wire != g.LocatorSnapshotWire() {
				return nil, fmt.Errorf("two fetches at one sequence built two snapshots")
			}
			if wire.Seq != g.Feed().Seq() || wire.Reorganizing != want.Reorganizing || wire.N != want.N {
				return nil, fmt.Errorf("wire snapshot seq=%d reorganizing=%v n=%d; feed seq=%d, export %v/%d",
					wire.Seq, wire.Reorganizing, wire.N, g.Feed().Seq(), want.Reorganizing, want.N)
			}
			if err := samePending(wire.Pending, want.Pending); err != nil {
				return nil, err
			}
			if n := len(want.Pending); n > 0 && n < planned {
				midDrain[n] = true
			}
			return !s.Reorganizing() && s.N() == 6, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if v.(bool) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("reorganization did not drain")
		}
		time.Sleep(time.Millisecond)
	}
	if early == nil || len(midDrain) < 2 {
		t.Fatalf("saw %d distinct mid-drain states; the drain was too short to test", len(midDrain))
	}
	if err := samePending((*early)().Pending, earlyWant); err != nil {
		t.Fatalf("tuple from early in the drain, built after it: %v", err)
	}
	if final := g.LocatorSnapshotWire(); final.N != 6 || final.Reorganizing || len(final.Pending) != 0 {
		t.Fatalf("final wire snapshot: n=%d reorganizing=%v pending=%d", final.N, final.Reorganizing, len(final.Pending))
	}
}
