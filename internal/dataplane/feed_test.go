package dataplane

import (
	"context"
	"errors"
	"testing"
	"time"

	"scaddar/internal/scaddar"
)

func TestFeedSinceAndEviction(t *testing.T) {
	f := NewFeed(16)
	for i := 0; i < 40; i++ {
		f.Publish(Delta{Kind: DeltaMoves, Moves: []MovedBlock{{Object: 1, Index: i}}})
	}
	if f.Seq() != 40 {
		t.Fatalf("Seq = %d, want 40", f.Seq())
	}
	// Recent history is served.
	ds, seq, err := f.Since(FeedPos{Seq: 30})
	if err != nil || seq != 40 || len(ds) != 10 {
		t.Fatalf("Since(30) = %d deltas, seq %d, %v", len(ds), seq, err)
	}
	if ds[0].Seq != 31 || ds[9].Seq != 40 {
		t.Fatalf("Since(30) seqs = %d..%d", ds[0].Seq, ds[9].Seq)
	}
	// Evicted history demands a snapshot refetch.
	if _, _, err := f.Since(FeedPos{Seq: 3}); !errors.Is(err, ErrDeltaGone) {
		t.Fatalf("Since(3) = %v, want ErrDeltaGone", err)
	}
	// Caught-up client gets nothing.
	ds, _, err = f.Since(FeedPos{Seq: 40})
	if err != nil || len(ds) != 0 {
		t.Fatalf("Since(40) = %d deltas, %v", len(ds), err)
	}
}

func TestFeedWaitWakesOnPublish(t *testing.T) {
	f := NewFeed(16)
	f.Publish(Delta{Kind: DeltaMoves})
	done := make(chan int, 1)
	go func() {
		ds, _, _ := f.Wait(context.Background(), FeedPos{Seq: 1})
		done <- len(ds)
	}()
	time.Sleep(10 * time.Millisecond)
	f.Publish(Delta{Kind: DeltaMoves})
	select {
	case n := <-done:
		if n != 1 {
			t.Fatalf("Wait returned %d deltas, want 1", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Wait did not wake on publish")
	}
	// A cancelled wait returns promptly with nothing new.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	ds, seq, err := f.Wait(ctx, f.Pos())
	if err != nil || len(ds) != 0 || seq != f.Seq() {
		t.Fatalf("cancelled Wait = %d deltas, seq %d, %v", len(ds), seq, err)
	}
}

// TestFeedRefusesForeignCursor pins the rule that keeps a follower off a dead
// history: a cursor ahead of the feed, or of another incarnation, is
// ErrDeltaGone from Since and at once from Wait — at the parent both answered
// "nothing new", Wait after parking its whole wait, and once the feed passed
// the cursor it served its own deltas onto the other history's base.
func TestFeedRefusesForeignCursor(t *testing.T) {
	f := NewFeed(16)
	for i := 0; i < 3; i++ {
		f.Publish(Delta{Kind: DeltaMoves})
	}
	other := NewFeed(16).Pos().ID
	if other == 0 || other == f.Pos().ID {
		t.Fatalf("incarnations %d and %d: want two distinct non-zero IDs", other, f.Pos().ID)
	}
	for _, after := range []FeedPos{{Seq: 10}, {ID: f.Pos().ID, Seq: 4}, {ID: other, Seq: 2}, {ID: other, Seq: 3}} {
		if ds, seq, err := f.Since(after); !errors.Is(err, ErrDeltaGone) || ds != nil || seq != 3 {
			t.Errorf("Since(%+v) = %d deltas, seq %d, %v; want ErrDeltaGone at seq 3", after, len(ds), seq, err)
		}
		start := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_, _, err := f.Wait(ctx, after)
		cancel()
		if !errors.Is(err, ErrDeltaGone) || time.Since(start) > time.Second {
			t.Errorf("Wait(%+v) = %v after %s; want ErrDeltaGone at once", after, err, time.Since(start))
		}
	}
	// The feed's own cursor, with or without its incarnation, still parks.
	for _, after := range []FeedPos{{Seq: 3}, f.Pos()} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		ds, _, err := f.Wait(ctx, after)
		cancel()
		if err != nil || len(ds) != 0 {
			t.Errorf("Wait(%+v) = %d deltas, %v; want a quiet park", after, len(ds), err)
		}
	}
}

func TestFeedPosRoundTrip(t *testing.T) {
	for _, p := range []FeedPos{{}, {ID: 1}, {ID: 1<<53 - 1, Seq: 1<<64 - 1}} {
		if got, ok := ParseFeedPos(p.String()); !ok || got != p {
			t.Errorf("ParseFeedPos(%q) = %+v, %v", p.String(), got, ok)
		}
	}
	for _, s := range []string{"", "7", "7-", "-7", "7-x", "x-7", "7-8-9", "-1-2"} {
		if got, ok := ParseFeedPos(s); ok || got != (FeedPos{}) {
			t.Errorf("ParseFeedPos(%q) = %+v, %v; want nothing", s, got, ok)
		}
	}
}

// grownSnapshot is wireSnapshot's array after two disks joined: 5 disks, the
// given blocks of object 0 still awaiting their move off disk 0.
func grownSnapshot(t testing.TB, pending ...int) *Snapshot {
	t.Helper()
	h := scaddar.MustNewHistory(3)
	if _, err := h.Add(2); err != nil {
		t.Fatal(err)
	}
	hist, err := h.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	snap := &Snapshot{N: 5, Bits: 64, History: hist, Reorganizing: len(pending) > 0, Objects: []ObjectInfo{{ID: 0, Seed: 42, Blocks: 8}}}
	for _, idx := range pending {
		snap.Pending = append(snap.Pending, PendingBlock{Object: 0, Index: idx, From: 0})
	}
	return snap
}

// sameLocator fails the test unless two locators answer alike: position,
// width, pending count and every block of object 0.
func sameLocator(t testing.TB, what string, got, want *ClientLocator) {
	t.Helper()
	if got.Pos() != want.Pos() || got.N() != want.N() || got.PendingCount() != want.PendingCount() {
		t.Fatalf("%s: at %+v with %d disks and %d pending, want %+v, %d, %d",
			what, got.Pos(), got.N(), got.PendingCount(), want.Pos(), want.N(), want.PendingCount())
	}
	for idx := 0; idx < 8; idx++ {
		g, gerr := got.Locate(0, idx)
		w, werr := want.Locate(0, idx)
		if g != w || (gerr == nil) != (werr == nil) {
			t.Fatalf("%s: block %d on disk %d (%v), want %d (%v)", what, idx, g, gerr, w, werr)
		}
	}
}

// TestFeedRetainsFromNewestSnapshot pins the retention rule: a snapshot delta
// drops everything published before it, and a cursor from before it is served
// the ring that begins with it — at the parent the ring kept all four deltas;
// with the truncation alone (ROADMAP's dead end) the lagging cursor was a 410.
// A locator that applies that page stands where one that applied every delta
// does, and where one given the snapshot served at the head does. What is
// still a 410: a cursor that fell out of a ring beginning with a moves delta,
// another incarnation's, and one ahead of the feed.
func TestFeedRetainsFromNewestSnapshot(t *testing.T) {
	f := NewFeed(16)
	base := wireSnapshot(t)
	base.Incarnation = f.Pos().ID
	base.Pending = []PendingBlock{{Object: 0, Index: 1, From: 2}}
	eager, lagging := NewClientLocator(splitMix), NewClientLocator(splitMix)
	for _, loc := range []*ClientLocator{eager, lagging} {
		if err := loc.ApplySnapshot(base); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range []Delta{
		{Kind: DeltaMoves, Moves: []MovedBlock{{Object: 0, Index: 1}}},
		{Kind: DeltaSnapshot, Snapshot: grownSnapshot(t, 2, 5, 6)},
		{Kind: DeltaMoves, Moves: []MovedBlock{{Object: 0, Index: 5}}},
		{Kind: DeltaMoves, Moves: []MovedBlock{{Object: 0, Index: 2}}},
	} {
		f.Publish(d)
		page, _, err := f.Since(eager.Pos())
		if err != nil || len(page) != 1 {
			t.Fatalf("a caught-up cursor at %+v: %d deltas, %v", eager.Pos(), len(page), err)
		}
		if err := eager.Apply(page[0]); err != nil {
			t.Fatal(err)
		}
	}
	if n, bytes := f.Retained(); n != 3 || bytes != 3*24+1*32+2*16 {
		t.Errorf("Retained = %d deltas, %d bytes; want the snapshot delta and two moves deltas, %d bytes", n, bytes, 3*24+1*32+2*16)
	}
	for _, after := range []FeedPos{{}, lagging.Pos(), {ID: f.Pos().ID, Seq: 1}} {
		page, seq, err := f.Since(after)
		if err != nil || seq != 4 || len(page) != 3 || page[0].Seq != 2 || page[0].Kind != DeltaSnapshot || page[2].Seq != 4 {
			t.Fatalf("Since(%+v) = %d deltas, seq %d, %v; want deltas 2..4, the snapshot delta first", after, len(page), seq, err)
		}
	}
	page, _, err := f.Wait(context.Background(), lagging.Pos())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range page {
		if err := lagging.Apply(d); err != nil {
			t.Fatalf("the lagging follower applying delta %d (%s): %v", d.Seq, d.Kind, err)
		}
	}
	sameLocator(t, "one page behind the snapshot delta", lagging, eager)
	head := grownSnapshot(t, 6) // what a snapshot fetch at the head is answered with
	head.Seq, head.Incarnation = 4, f.Pos().ID
	bootstrapped := NewClientLocator(splitMix)
	if err := bootstrapped.ApplySnapshot(head); err != nil {
		t.Fatal(err)
	}
	sameLocator(t, "bootstrapped at the head", bootstrapped, eager)

	// Sixteen moves deltas later the snapshot delta has left the ring.
	for i := 0; i < 16; i++ {
		f.Publish(Delta{Kind: DeltaMoves})
	}
	if n, bytes := f.Retained(); n != 16 || bytes != 0 {
		t.Errorf("Retained = %d deltas, %d bytes; want 16 empty moves deltas", n, bytes)
	}
	other := NewFeed(16).Pos().ID
	for _, after := range []FeedPos{{Seq: 1}, {Seq: 3}, {ID: other, Seq: 19}, {Seq: 21}} {
		if _, _, err := f.Since(after); !errors.Is(err, ErrDeltaGone) {
			t.Errorf("Since(%+v) on a ring that begins with moves delta 5 = %v, want ErrDeltaGone", after, err)
		}
	}
	if page, _, err := f.Since(FeedPos{Seq: 4}); err != nil || len(page) != 16 {
		t.Errorf("Since(4) = %d deltas, %v; want the 16 retained", len(page), err)
	}
	// And a ring that begins with a snapshot delta still refuses the two
	// cursors no retention could serve.
	f.Publish(Delta{Kind: DeltaSnapshot, Snapshot: head})
	for _, after := range []FeedPos{{ID: other, Seq: 2}, {Seq: 22}} {
		if _, _, err := f.Since(after); !errors.Is(err, ErrDeltaGone) {
			t.Errorf("Since(%+v) = %v, want ErrDeltaGone", after, err)
		}
	}
}

// TestFeedSlidesWithoutLosingOrder drives a ring through several capacities'
// worth of drops (the slide happens once per capacity) and checks, at every
// publish, that what is retained is exactly the newest deltas in order.
func TestFeedSlidesWithoutLosingOrder(t *testing.T) {
	f := NewFeed(16)
	for i := 1; i <= 100; i++ {
		f.Publish(Delta{Kind: DeltaMoves, Moves: make([]MovedBlock, i%3)})
		first := max(1, i-15)
		page, seq, err := f.Since(FeedPos{Seq: uint64(first - 1)})
		if err != nil || seq != uint64(i) || len(page) != i-first+1 {
			t.Fatalf("after %d publishes: Since(%d) = %d deltas, seq %d, %v", i, first-1, len(page), seq, err)
		}
		bytes := 0
		for k, d := range page {
			if d.Seq != uint64(first+k) || len(d.Moves) != (first+k)%3 {
				t.Fatalf("after %d publishes: delta %d of the page is seq %d with %d moves", i, k, d.Seq, len(d.Moves))
			}
			bytes += 16 * len(d.Moves)
		}
		if n, got := f.Retained(); n != len(page) || got != bytes {
			t.Fatalf("after %d publishes: Retained = %d, %d; the page holds %d, %d", i, n, got, len(page), bytes)
		}
		if first > 1 {
			if _, _, err := f.Since(FeedPos{Seq: uint64(first - 2)}); !errors.Is(err, ErrDeltaGone) {
				t.Fatalf("after %d publishes: Since(%d) = %v, want ErrDeltaGone", i, first-2, err)
			}
		}
	}
}
