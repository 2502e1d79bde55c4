package dataplane

import (
	"context"
	"errors"
	"testing"
	"time"
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
