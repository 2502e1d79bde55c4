package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"scaddar/internal/binproto"
	"scaddar/internal/dataplane"
	"scaddar/internal/prng"
)

// A shard's view is the router's own replica of the shard's block locator: a
// dataplane.ClientLocator kept current by one follower goroutine over the
// shard's locator feed, from which handleRead answers a block read without the
// hop — the paper's AO1 one level up. ARCHITECTURE.md ("The routed read")
// states the contract: the four conditions of a local answer, what it
// promises, and why the hop stays as the one fallback.

// The reasons a read is forwarded to its shard instead of answered locally,
// the label values of cluster_reads_forwarded_total.
const (
	fwdNoView = iota // no verified view: never synced, dropped, or refused
	fwdLease         // the follower has not heard from the shard within ShardTimeout
	fwdBehind        // the view is older than the floor, or of another incarnation
	fwdMiss          // the view cannot name the disk: the shard's 404 is authoritative
	fwdReasons
)

var fwdReasonLabels = [fwdReasons]string{"no_view", "lease", "behind", "miss"}

// answer answers a block read from the shard's view, and only when all four
// hold: the caller found the shard routable; the view is verified and names
// the block's disk; it is of the incarnation the router last heard from, at
// or past the floor; and the follower heard from the shard within
// ShardTimeout. Anything else is counted by reason and left to the hop.
func (r *Router) answer(sh *shard, object, index int) (loc binproto.Location, ok bool) {
	reason := fwdNoView
	if v := sh.view.Load(); v != nil {
		a, found := v.Answer(object, index)
		floor := sh.floor.Load()
		switch {
		case int64(time.Since(sh.born)) >= sh.lease.Load():
			reason = fwdLease
		case floor == nil || a.Pos.ID != floor.ID || a.Pos.Seq < floor.Seq:
			reason = fwdBehind
		case !found:
			reason = fwdMiss
		default:
			sh.readsLocal.Inc()
			return binproto.Location{Disk: a.Disk, Healthy: a.Healthy, Reorganizing: a.Reorganizing}, true
		}
	}
	r.m.forwarded[reason].Inc()
	return binproto.Location{}, false
}

// heard folds in a feed position the shard reported in reply to a request
// sent while the floor was before: the stamp on a forwarded mutation, or the
// incarnation of a feed reply. Within one incarnation the floor only rises.
// Another incarnation replaces it if the floor has not moved since the request
// went out: the process that answered was alive after the floor's last spoke,
// and an address serves one process at a time, so it is the newer. If the
// floor did move, neither can be told the newer and the floor stays — the view
// is not served across the disagreement — until the follower's next exchange,
// sent with the floor it finds, settles it.
func (s *shard) heard(before *dataplane.FeedPos, p dataplane.FeedPos) {
	for {
		cur := s.floor.Load()
		if cur != nil && (cur.ID == p.ID && cur.Seq >= p.Seq || cur.ID != p.ID && cur != before) {
			return
		}
		if s.floor.CompareAndSwap(cur, &dataplane.FeedPos{ID: p.ID, Seq: p.Seq}) { // allocated only when stored
			return
		}
	}
}

// follow starts the shard's follower. It runs until unfollow.
func (r *Router) follow(sh *shard) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	sh.unfollow = func() { cancel(); <-done }
	sh.born = time.Now()
	sh.viewState.Store("syncing")
	// SplitMix64 is the generator family every entry point builds its servers
	// over; a shard built over another disagrees with checkView and is refused.
	sh.loc = dataplane.NewClientLocator(func(seed uint64) prng.Source { return prng.NewSplitMix64(seed) })
	// show opens the view (serving) or shuts it, and logs a change of state once.
	show := func(view *dataplane.ClientLocator, state string, detail any) {
		sh.view.Store(view)
		if sh.viewState.Swap(state) != state {
			r.logf("cluster: shard %d view %s: %v", sh.id, state, detail)
		}
	}
	var (
		before  *dataplane.FeedPos // the floor when the last request went out
		heardAt time.Time          // when its reply was read
	)
	fetch := func(ctx context.Context, path string) (int, []byte, error) {
		before = sh.floor.Load()
		rep, err := sh.call(ctx, http.MethodGet, path, nil)
		heardAt = time.Now()
		return rep.status, rep.body, err
	}
	go func() {
		defer close(done)
		// The poll's wait is half of ShardTimeout: a reply arrives inside the
		// exchange's deadline with the lease of the one before still running.
		sh.loc.Follow(ctx, fetch, sh.timeout/2, func(ev dataplane.FollowEvent) {
			if ev.Err != nil {
				if ev.Status == 0 && !errors.Is(ev.Err, errReplyTooLarge) {
					sh.setHealthy(false) // as a failed exchange marks it (account)
				}
				show(nil, "dropped", ev.Err)
				return
			}
			pos := sh.loc.Pos()
			sh.heard(before, dataplane.FeedPos{ID: pos.ID})
			sh.lease.Store(int64(heardAt.Sub(sh.born) + sh.timeout))
			sh.viewSeq.Set(float64(pos.Seq))
			if ev.Synced {
				sh.viewSyncs.Inc()
				sh.setHealthy(true)
			}
			if ev.Deltas > 0 {
				r.m.viewApply.ObserveDuration(ev.Took)
				r.m.viewPageBytes.Observe(float64(ev.Bytes))
			}
			// Checked on the first snapshot of the connection, and again on
			// every delivery until it passes: a shard that moved on between the
			// snapshot and the hop disagrees for one delivery, not for good.
			if sh.view.Load() == nil && (ev.Synced || ev.Deltas > 0) {
				switch checked, err := sh.checkView(ctx); {
				case err != nil:
					sh.viewRefused.Inc()
					show(nil, "refused", err)
				case checked > 0:
					show(sh.loc, "serving", pos)
				}
			}
		})
	}()
}

// checkView compares a handful of the view's answers — the first and last
// block of its first four objects — with the shard's own, asked through the hop.
// It returns how many were compared, and an error if one differed or the hop
// failed; an empty view compares nothing and has nothing to serve either.
func (s *shard) checkView(ctx context.Context) (checked int, err error) {
	objs := s.loc.Objects()
	for _, o := range objs[:min(4, len(objs))] {
		for _, idx := range [...]int{0, o.Blocks - 1} {
			a, ok := s.loc.Answer(o.ID, idx)
			if !ok || uint64(o.ID)>>32 != 0 || uint64(idx)>>32 != 0 {
				continue
			}
			got, err := s.locate(ctx, uint32(o.ID), uint32(idx))
			if err != nil {
				return checked, err
			}
			if got.Code != 0 {
				continue // gone from the shard since the view's position
			}
			if got.Disk != a.Disk || got.Healthy != a.Healthy || got.Reorganizing != a.Reorganizing {
				return checked, fmt.Errorf("object %d block %d: the view says disk %d healthy=%v reorganizing=%v at %v, the shard disk %d healthy=%v reorganizing=%v",
					o.ID, idx, a.Disk, a.Healthy, a.Reorganizing, a.Pos, got.Disk, got.Healthy, got.Reorganizing)
			}
			checked++
		}
	}
	return checked, nil
}
