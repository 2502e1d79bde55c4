package dataplane

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"scaddar/internal/prng"
	"scaddar/internal/scaddar"
)

func splitMix(seed uint64) prng.Source { return prng.NewSplitMix64(seed) }

// wireSnapshot is a well-formed snapshot of a 3-disk array holding one
// 8-block object, for the tests below to corrupt.
func wireSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	hist, err := scaddar.MustNewHistory(3).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return &Snapshot{N: 3, Bits: 64, History: hist, Objects: []ObjectInfo{{ID: 0, Seed: 42, Blocks: 8}}}
}

// TestApplySnapshotHostile feeds ApplySnapshot values only a broken or
// malicious peer would send. None may hang, and none may leave a locator
// whose Locate indexes out of range.
func TestApplySnapshotHostile(t *testing.T) {
	// An absurd epoch is just a number mixed into the block randomness: it
	// must cost nothing, not one strategy rebuild per epoch.
	snap := wireSnapshot(t)
	snap.Epoch = 1 << 40
	loc := NewClientLocator(splitMix)
	start := time.Now()
	if err := loc.ApplySnapshot(snap); err != nil {
		t.Fatalf("epoch 1<<40: %v", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("epoch 1<<40 took %s", took)
	}
	if d, err := loc.Locate(0, 3); err != nil || d < 0 || d >= 3 {
		t.Fatalf("Locate after epoch 1<<40 = %d, %v", d, err)
	}

	for _, tc := range []struct {
		name    string
		corrupt func(*Snapshot)
		want    string
	}{
		{"short preOf", func(s *Snapshot) { s.PreOf = []int{0} }, "preOf has 1 entries for 3 disks"},
		{"preOf past the array", func(s *Snapshot) { s.PreOf = []int{0, 1, 3} }, "preOf entry 3 outside [0,3)"},
		{"negative preOf", func(s *Snapshot) { s.PreOf = []int{0, -1, 2} }, "preOf entry -1 outside [0,3)"},
		{"pending from nowhere", func(s *Snapshot) { s.Pending = []PendingBlock{{Object: 0, Index: 1, From: 7}} }, "from disk 7 outside [0,3)"},
		{"one object twice", func(s *Snapshot) { s.Objects = append(s.Objects, ObjectInfo{ID: 0, Seed: 43, Blocks: 9}) }, "lists object 0 twice"},
		{"unhealthy disk past the array", func(s *Snapshot) { s.Unhealthy = []int{1, 3} }, "unhealthy disk 3 outside [0,3)"},
		{"negative unhealthy disk", func(s *Snapshot) { s.Unhealthy = []int{-1} }, "unhealthy disk -1 outside [0,3)"},
		{"fewer disks than the history places on", func(s *Snapshot) { s.N = 2 }, "snapshot of 2 disks carries a history of 3"},
	} {
		snap := wireSnapshot(t)
		tc.corrupt(snap)
		loc := NewClientLocator(splitMix)
		err := loc.ApplySnapshot(snap)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ApplySnapshot = %v, want %q", tc.name, err, tc.want)
		}
		// The refused snapshot installed nothing to index into.
		for idx := 0; idx < 8; idx++ {
			if _, err := loc.Locate(0, idx); err == nil {
				t.Errorf("%s: Locate succeeded on a locator that refused its snapshot", tc.name)
			}
			if a, ok := loc.Answer(0, idx); ok {
				t.Errorf("%s: Answer = %+v on a locator that refused its snapshot", tc.name, a)
			}
		}
	}
}

// TestAnswerCarriesTheReply checks Answer against the fields it gathers: the
// disk Locate names, the health of that disk, reorganizing exactly while a
// move is pending, and the position — and that a miss says only "not here".
func TestAnswerCarriesTheReply(t *testing.T) {
	snap := wireSnapshot(t)
	snap.Seq, snap.Incarnation, snap.Reorganizing = 7, 99, true
	snap.Pending = []PendingBlock{{Object: 0, Index: 1, From: 2}}
	snap.Unhealthy = []int{2}
	loc := NewClientLocator(splitMix)
	if a, ok := loc.Answer(0, 1); ok {
		t.Fatalf("Answer before any snapshot = %+v", a)
	}
	if err := loc.ApplySnapshot(snap); err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < 8; idx++ {
		d, err := loc.Locate(0, idx)
		a, ok := loc.Answer(0, idx)
		want := Answer{Disk: d, Healthy: d != 2, Reorganizing: true, Pos: FeedPos{ID: 99, Seq: 7}}
		if err != nil || !ok || a != want {
			t.Errorf("block %d: Answer = %+v, %v; want %+v (Locate: %v)", idx, a, ok, want, err)
		}
	}
	if err := loc.Apply(Delta{Seq: 8, Kind: DeltaMoves, Moves: []MovedBlock{{Object: 0, Index: 1}}}); err != nil {
		t.Fatal(err)
	}
	if a, ok := loc.Answer(0, 1); !ok || a.Reorganizing || a.Pos != (FeedPos{ID: 99, Seq: 8}) {
		t.Errorf("after the last move: Answer = %+v, %v; want reorganizing false at 99-8", a, ok)
	}
	for _, miss := range [][2]int{{1, 0}, {0, 8}, {0, -1}} {
		if a, ok := loc.Answer(miss[0], miss[1]); ok || a != (Answer{Pos: FeedPos{ID: 99, Seq: 8}}) {
			t.Errorf("Answer(%d, %d) = %+v, %v; want a miss that says only where the locator is", miss[0], miss[1], a, ok)
		}
	}
}

// standIn is a gateway reduced to its locator feed: one Feed and the snapshot
// a fetch is answered with, stamped with the feed's position.
type standIn struct {
	feed     *Feed
	snapshot func(seq uint64) Snapshot
	goneOnce atomic.Bool
}

func (s *standIn) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/locator/snapshot", func(w http.ResponseWriter, _ *http.Request) {
		pos := s.feed.Pos()
		snap := s.snapshot(pos.Seq)
		snap.Seq, snap.Incarnation = pos.Seq, pos.ID
		json.NewEncoder(w).Encode(&snap)
	})
	mux.HandleFunc("GET /v1/locator/deltas", func(w http.ResponseWriter, r *http.Request) {
		if s.goneOnce.CompareAndSwap(true, false) {
			w.WriteHeader(http.StatusGone)
			return
		}
		id, _ := strconv.ParseUint(r.URL.Query().Get("incarnation"), 10, 64)
		after, _ := strconv.ParseUint(r.URL.Query().Get("after"), 10, 64)
		ctx, cancel := context.WithTimeout(r.Context(), 20*time.Millisecond)
		defer cancel()
		deltas, seq, err := s.feed.Wait(ctx, FeedPos{ID: id, Seq: after})
		if err != nil {
			w.WriteHeader(http.StatusGone)
			return
		}
		json.NewEncoder(w).Encode(DeltaPage{Deltas: deltas, Seq: seq, Incarnation: s.feed.Pos().ID})
	})
	return mux
}

func eventually(t *testing.T, what string, ok func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !ok(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestClientLocatorFollow runs FollowHTTP against a feed-backed gateway
// stand-in: the snapshot is installed before it returns, a moves delta is
// applied without any further call, a 410 is answered with one resync, and
// wait returns once the context ends.
func TestClientLocatorFollow(t *testing.T) {
	base := wireSnapshot(t)
	gw := &standIn{feed: NewFeed(16), snapshot: func(seq uint64) Snapshot {
		snap := *base
		if seq == 0 {
			snap.Pending = []PendingBlock{{Object: 0, Index: 1, From: 2}} // until the published move lands
		}
		return snap
	}}
	feed := gw.feed
	srv := httptest.NewServer(gw.handler())
	defer srv.Close()

	loc := NewClientLocator(splitMix)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wait, err := loc.FollowHTTP(ctx, srv.Client(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if d, err := loc.Locate(0, 1); err != nil || d != 2 {
		t.Fatalf("pending block located on %d, %v; want its pre-move disk 2", d, err)
	}
	feed.Publish(Delta{Kind: DeltaMoves, Moves: []MovedBlock{{Object: 0, Index: 1}}})
	eventually(t, "the moves delta", func() bool { return loc.Seq() == 1 && loc.PendingCount() == 0 })

	gw.goneOnce.Store(true)
	eventually(t, "the 410 to be consumed", func() bool { return !gw.goneOnce.Load() })
	feed.Publish(Delta{Kind: DeltaMoves})
	eventually(t, "the feed to resume after the resync", func() bool { return loc.Seq() == 2 })
	cancel()
	if resyncs := wait(); resyncs != 1 {
		t.Errorf("resyncs = %d, want 1", resyncs)
	}

	if _, err := NewClientLocator(splitMix).FollowHTTP(context.Background(), srv.Client(), srv.URL+"/nowhere"); err == nil {
		t.Error("FollowHTTP against a gateway without the snapshot endpoint returned no error")
	}
}

// TestFollowSurvivesGatewayRestart kills the gateway under a follower, holds
// it down past a failed resync, and brings up another on the same address
// with a different catalogue and a feed that starts again at 0. The locator
// must converge to the new incarnation — at the parent it went back to
// polling deltas at its old cursor, which the new feed answered with "nothing
// new" for ever — and every Locate on the way must be an answer one of the two
// incarnations gives.
func TestFollowSurvivesGatewayRestart(t *testing.T) {
	oldSnap, newSnap := wireSnapshot(t), wireSnapshot(t)
	newSnap.Objects = []ObjectInfo{{ID: 0, Seed: 4242, Blocks: 8}, {ID: 1, Seed: 7, Blocks: 8}}
	answers := func(snap *Snapshot) (out [8]int) {
		loc := NewClientLocator(splitMix)
		if err := loc.ApplySnapshot(snap); err != nil {
			t.Fatal(err)
		}
		for idx := range out {
			out[idx], _ = loc.Locate(0, idx)
		}
		return out
	}
	oldAns, newAns := answers(oldSnap), answers(newSnap)
	if oldAns == newAns {
		t.Fatal("test vacuous: both catalogues place object 0 alike")
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	serve := func(ln net.Listener, gw *standIn) *http.Server {
		hs := &http.Server{Handler: gw.handler()}
		go hs.Serve(ln)
		return hs
	}
	old := &standIn{feed: NewFeed(16), snapshot: func(uint64) Snapshot { return *oldSnap }}
	for i := 0; i < 10; i++ { // the old feed is at 10: ahead of anything the new one reaches below
		old.feed.Publish(Delta{Kind: DeltaMoves})
	}
	hs := serve(ln, old)

	loc := NewClientLocator(splitMix)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hc := &http.Client{Transport: &http.Transport{}}
	wait, err := loc.FollowHTTP(ctx, hc, "http://"+addr)
	if err != nil {
		t.Fatal(err)
	}
	if pos := loc.Pos(); pos != old.feed.Pos() {
		t.Fatalf("following at %+v, want the old feed's %+v", pos, old.feed.Pos())
	}
	// A reader checks every answer while the gateway dies and comes back.
	var bad atomic.Value
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for ctx.Err() == nil {
			for idx := 0; idx < 8; idx++ {
				if d, err := loc.Locate(0, idx); err != nil || d != oldAns[idx] && d != newAns[idx] {
					bad.Store(fmt.Sprintf("Locate(0, %d) = %d, %v: neither the old incarnation's %d nor the new one's %d",
						idx, d, err, oldAns[idx], newAns[idx]))
					return
				}
			}
		}
	}()

	hs.Close()
	// Down for two backoffs: at least one resync finds nobody home.
	for probe := 0; probe < 3; probe++ {
		if _, err := hc.Get("http://" + addr + "/v1/locator/snapshot"); err == nil {
			t.Fatal("the killed gateway still answers")
		}
		time.Sleep(resyncBackoff)
	}
	if got := loc.Pos(); got != old.feed.Pos() {
		t.Fatalf("with the gateway down the locator moved to %+v", got)
	}
	ln, err = net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	fresh := &standIn{feed: NewFeed(16), snapshot: func(uint64) Snapshot { return *newSnap }}
	for i := 0; i < 3; i++ {
		fresh.feed.Publish(Delta{Kind: DeltaMoves})
	}
	hs = serve(ln, fresh)
	defer hs.Close()
	eventually(t, "the locator to converge on the new incarnation", func() bool { return loc.Pos() == fresh.feed.Pos() })
	if _, ok := loc.Object(1); !ok {
		t.Error("the new incarnation's catalogue was not installed")
	}
	// And it follows on: the new feed passes the old cursor without the old
	// base ever seeing its deltas.
	for i := 0; i < 9; i++ {
		fresh.feed.Publish(Delta{Kind: DeltaMoves})
	}
	eventually(t, "the new feed's deltas", func() bool { return loc.Pos() == fresh.feed.Pos() })
	cancel()
	<-readerDone
	if msg := bad.Load(); msg != nil {
		t.Error(msg)
	}
	if resyncs := wait(); resyncs < 1 {
		t.Errorf("resyncs = %d, want at least 1", resyncs)
	}
}
