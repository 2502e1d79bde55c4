package dataplane

import (
	"context"
	"encoding/json"
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
		}
	}
}

// TestClientLocatorFollow runs Follow against a feed-backed gateway stand-in:
// the snapshot is installed before Follow returns, a moves delta is applied
// without any further call, a 410 is answered with one resync, and wait
// returns once the context ends.
func TestClientLocatorFollow(t *testing.T) {
	feed := NewFeed(16)
	base := wireSnapshot(t)
	base.Pending = []PendingBlock{{Object: 0, Index: 1, From: 2}}
	var goneOnce atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/locator/snapshot", func(w http.ResponseWriter, _ *http.Request) {
		snap := *base
		snap.Seq = feed.Seq()
		if snap.Seq > 0 {
			snap.Pending = nil // the published move has landed
		}
		json.NewEncoder(w).Encode(&snap)
	})
	mux.HandleFunc("GET /v1/locator/deltas", func(w http.ResponseWriter, r *http.Request) {
		if goneOnce.CompareAndSwap(true, false) {
			w.WriteHeader(http.StatusGone)
			return
		}
		after, _ := strconv.ParseUint(r.URL.Query().Get("after"), 10, 64)
		ctx, cancel := context.WithTimeout(r.Context(), 20*time.Millisecond)
		defer cancel()
		deltas, seq, _ := feed.Wait(ctx, after)
		json.NewEncoder(w).Encode(map[string]any{"deltas": deltas, "seq": seq})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	loc := NewClientLocator(splitMix)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wait, err := loc.Follow(ctx, srv.Client(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if d, err := loc.Locate(0, 1); err != nil || d != 2 {
		t.Fatalf("pending block located on %d, %v; want its pre-move disk 2", d, err)
	}
	eventually := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !ok(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	feed.Publish(Delta{Kind: DeltaMoves, Moves: []MovedBlock{{Object: 0, Index: 1}}})
	eventually("the moves delta", func() bool { return loc.Seq() == 1 && loc.PendingCount() == 0 })

	goneOnce.Store(true)
	eventually("the 410 to be consumed", func() bool { return !goneOnce.Load() })
	feed.Publish(Delta{Kind: DeltaMoves})
	eventually("the feed to resume after the resync", func() bool { return loc.Seq() == 2 })
	cancel()
	if resyncs := wait(); resyncs != 1 {
		t.Errorf("resyncs = %d, want 1", resyncs)
	}

	if _, err := NewClientLocator(splitMix).Follow(context.Background(), srv.Client(), srv.URL+"/nowhere"); err == nil {
		t.Error("Follow against a gateway without the snapshot endpoint returned no error")
	}
}
