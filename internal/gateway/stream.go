package gateway

// This file is the gateway's data plane: it bridges the cm server's
// round-paced block deliveries into per-session bounded buffers drained by
// streaming HTTP handlers, and publishes the snapshot+delta locator feed
// that lets thousands of clients track a live reorganization without
// re-asking the server per block.
//
// Two sink interfaces wire it under the owner goroutine:
//
//   - cm.DeliverySink: Tick hands each served block's bytes to Deliver,
//     which offers them to the session's bounded channel without blocking.
//     A slow client misses the round's deadline (the chunk is dropped and
//     counted as a hiccup); enough consecutive misses evict the session —
//     backpressure protects the round, never the laggard.
//   - cm.EventSink (teed via AddEventSink): migrated-block events accumulate
//     into per-round "moves" deltas, epoch events (scale start/finish,
//     catalog changes) mark the feed dirty; capture — called after every tick
//     and command — takes them as the feed's next step, published once
//     durable (publish.go), which re-points the state that
//     GET /v1/locator/snapshot serves without touching the mailbox.
//
// The pacer is the round driver itself: chunks arrive at session buffers
// once per round, so a client that keeps up reads one block per round and a
// client that doesn't hiccups. No timers exist on the stream path.

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"scaddar/internal/bufpool"
	"scaddar/internal/cm"
	"scaddar/internal/dataplane"
	"scaddar/internal/reorg"
)

// ErrStreamAttached is returned when a second consumer tries to attach to a
// session's stream; each session has exactly one chunk consumer.
var ErrStreamAttached = fmt.Errorf("gateway: stream already has a consumer")

// dataPlane is the gateway-side state of the streaming data plane.
type dataPlane struct {
	g    *Gateway
	feed *dataplane.Feed
	// wire builds what the snapshot endpoint serves, re-pointed by capture's step so
	// a fetch never pays for the mailbox (10k clients fetching their
	// baseline must not serialize behind the round driver).
	wire atomic.Pointer[func() *dataplane.Snapshot]
	// base is the server's last full export, taken at the latest epoch or
	// catalog boundary. Owner-goroutine only.
	base *cm.LocatorState

	mu       sync.Mutex
	sessions map[int]*dataplane.Session // stream ID → attached consumer

	// moves and dirty accumulate event-sink updates between captures.
	// Owner-goroutine only.
	moves []dataplane.MovedBlock
	dirty bool
}

// feedCapacity bounds the locator delta feed ring after its newest snapshot
// delta; a client a long drain leaves further behind must refetch the snapshot.
const feedCapacity = 1024

// newDataPlane wires the delivery and event sinks into the server and
// caches the initial snapshot. Called from New before the round driver
// starts, on the soon-to-be owner goroutine.
func newDataPlane(g *Gateway, srv *cm.Server) (*dataPlane, error) {
	dp := &dataPlane{
		g:        g,
		feed:     dataplane.NewFeed(feedCapacity),
		sessions: make(map[int]*dataplane.Session),
	}
	srv.SetDeliverySink(dp)
	srv.AddEventSink(dp.onEvent)
	var err error
	if dp.base, err = srv.LocatorStateExport(); err != nil {
		return nil, err
	}
	dp.publish(dp.base, srv.PendingView(), dp.feed.Pos())
	return dp, nil
}

// publish re-points the snapshot endpoint at {base as of view, pos} and
// returns the builder. Rounds that only move blocks change nothing else, so
// this tuple — O(1) on the owner goroutine — is all a round publishes; the
// wire snapshot, pending list and all, is built off the owner by the first
// fetch that wants it, once per sequence. Owner only.
func (dp *dataPlane) publish(base *cm.LocatorState, view reorg.PendingView, pos dataplane.FeedPos) func() *dataplane.Snapshot {
	build := sync.OnceValue(func() *dataplane.Snapshot { return wireSnapshot(base.AsOf(view), pos) })
	dp.wire.Store(&build)
	return build
}

// wireSnapshot converts a locator state into the wire snapshot.
func wireSnapshot(ls *cm.LocatorState, pos dataplane.FeedPos) *dataplane.Snapshot {
	snap := &dataplane.Snapshot{
		Seq:          pos.Seq,
		Incarnation:  pos.ID,
		N:            ls.N,
		Epoch:        ls.Epoch,
		Bits:         ls.Bits,
		Reorganizing: ls.Reorganizing,
		History:      ls.History,
		PreOf:        ls.PreOf,
		Unhealthy:    ls.Unhealthy,
	}
	snap.Objects = make([]dataplane.ObjectInfo, len(ls.Objects))
	for i, o := range ls.Objects {
		snap.Objects[i] = dataplane.ObjectInfo{
			ID: o.ID, Seed: o.Seed, Blocks: o.Blocks, BlockBytes: o.BlockBytes,
		}
	}
	if len(ls.Pending) > 0 {
		snap.Pending = make([]dataplane.PendingBlock, len(ls.Pending))
		for i, p := range ls.Pending {
			snap.Pending[i] = dataplane.PendingBlock{Object: p.Object, Index: int(p.Index), From: p.From}
		}
	}
	return snap
}

// WantsPayload implements cm.DeliverySink: the server materializes bytes
// only for streams with a live consumer.
func (dp *dataPlane) WantsPayload(stream int) bool {
	dp.mu.Lock()
	s := dp.sessions[stream]
	dp.mu.Unlock()
	return s != nil && !s.Closed()
}

// Deliver implements cm.DeliverySink: offer the round's chunk to the
// session buffer without blocking. Returning true evicts the stream.
//
// Ownership: a delivered chunk hands its payload reference to the session
// buffer (the handler's drain loop releases it); a missed or orphaned
// chunk is released here. The mutex is held across Offer so a detaching
// handler cannot slip between the lookup and the offer — once detach
// returns, no further chunk can land in the session, which makes the
// handler's final ReleaseBuffered sweep authoritative.
func (dp *dataPlane) Deliver(stream, object int, index int, p bufpool.Payload) bool {
	dp.mu.Lock()
	defer dp.mu.Unlock()
	s := dp.sessions[stream]
	if s == nil || s.Closed() {
		p.Release()
		return false
	}
	delivered, evict := s.Offer(dataplane.Chunk{Index: index, Payload: p})
	switch {
	case delivered:
		dp.g.m.streamChunks.Inc()
	case evict:
		// The consecutive-miss limit: close toward the handler first so the
		// end frame says "evicted", then tell the server to stop the stream.
		p.Release()
		dp.g.m.streamMisses.Inc()
		dp.g.m.streamEvictions.Inc()
		s.Close(dataplane.CloseEvicted)
		return true
	default:
		p.Release()
		dp.g.m.streamMisses.Inc()
	}
	return false
}

// StreamClosed implements cm.DeliverySink: a stream left StreamPlaying
// during Tick; propagate the reason to the attached consumer. Close is
// idempotent and first-reason-wins, so an eviction already recorded by
// Deliver is preserved.
func (dp *dataPlane) StreamClosed(stream int, state cm.StreamState) {
	dp.mu.Lock()
	s := dp.sessions[stream]
	dp.mu.Unlock()
	if s == nil {
		return
	}
	reason := dataplane.CloseStopped
	if state == cm.StreamDone {
		reason = dataplane.CloseDone
	}
	s.Close(reason)
}

// attach registers a consumer session for a stream. Owner goroutine only
// (run inside an exec closure so registration is serialized with Tick and
// no round's delivery falls between the state check and the map insert).
func (dp *dataPlane) attach(s *dataplane.Session) error {
	dp.mu.Lock()
	defer dp.mu.Unlock()
	if cur, ok := dp.sessions[s.Stream()]; ok && !cur.Closed() {
		return ErrStreamAttached
	}
	dp.sessions[s.Stream()] = s
	return nil
}

// detach removes a stream's consumer registration (the handler's deferred
// cleanup; safe from any goroutine).
func (dp *dataPlane) detach(stream int, s *dataplane.Session) {
	dp.mu.Lock()
	if dp.sessions[stream] == s {
		delete(dp.sessions, stream)
	}
	dp.mu.Unlock()
}

// closeStream closes a stream's consumer with the given reason. Owner
// goroutine only (Session.Close contract).
func (dp *dataPlane) closeStream(stream int, reason dataplane.CloseReason) {
	dp.mu.Lock()
	s := dp.sessions[stream]
	dp.mu.Unlock()
	if s != nil {
		s.Close(reason)
	}
}

// closeObject closes every consumer playing the given object — the
// force-remove path stops the object's streams outside Tick, so no
// StreamClosed notification will arrive. Owner goroutine only.
func (dp *dataPlane) closeObject(object int) {
	dp.mu.Lock()
	var victims []*dataplane.Session
	for _, s := range dp.sessions {
		if s.Object() == object {
			victims = append(victims, s)
		}
	}
	dp.mu.Unlock()
	for _, s := range victims {
		s.Close(dataplane.CloseStopped)
	}
}

// closeAll ends every consumer session; the owner loop calls it on exit so
// no handler blocks on a channel nobody will ever close again.
func (dp *dataPlane) closeAll(reason dataplane.CloseReason) {
	dp.mu.Lock()
	victims := make([]*dataplane.Session, 0, len(dp.sessions))
	for _, s := range dp.sessions {
		victims = append(victims, s)
	}
	dp.mu.Unlock()
	for _, s := range victims {
		s.Close(reason)
	}
}

// onEvent is the cm.EventSink tee: accumulate migrated blocks for the next
// moves delta; mark the feed dirty at every boundary that changes the
// placement function or the catalog. Owner goroutine only; must not call
// back into the server (capture does that, after the mutation completes).
func (dp *dataPlane) onEvent(ev cm.Event) {
	switch ev.Kind {
	case cm.EventBlocksMigrated:
		// Sized to the event: the feed ring keeps the slice, capacity and all.
		dp.moves = slices.Grow(dp.moves, len(ev.Moves))
		for _, m := range ev.Moves {
			dp.moves = append(dp.moves, dataplane.MovedBlock{Object: m.Object, Index: int(m.Index)})
		}
	case cm.EventObjectAdded, cm.EventObjectRemoved, cm.EventIngestCommitted:
		dp.dirty = true
	default:
		if cm.IsEpochEvent(ev.Kind) {
			dp.dirty = true
		}
	}
}

// capture takes the feed's next step from what the event sink accumulated and
// returns what publishes it, nil for none. Owner goroutine only, both.
//
// Moves go before any snapshot: within a round the server migrates blocks
// and may then complete the reorganization, and a client replaying the feed
// must see the same order. A round that only moved blocks re-points the
// served snapshot at the new pending view and sequence, so a freshly
// connecting client starts at the current sequence instead of replaying the
// whole drain — which is also what keeps long migrations from outrunning the
// bounded feed ring and forcing ErrDeltaGone resyncs. Only an epoch or
// catalog boundary, or a disk changing health (compared, not evented: a
// rebuild can end without one), pays for a full export: its delta carries
// one, stamped with the sequence the step (the feed's only publisher) is
// about to give it, and built before — in the ring, pollers encode it.
func (dp *dataPlane) capture() func() {
	moves, view, full := dp.moves, dp.g.srv.PendingView(), false
	dp.moves = nil
	if dp.dirty || !slices.Equal(dp.base.Unhealthy, dp.g.srv.UnhealthyDisks()) {
		if base, err := dp.g.srv.LocatorStateExport(); err != nil {
			dp.g.logf("gateway: locator snapshot: %v", err)
		} else {
			dp.base, dp.dirty, full = base, false, true
		}
	}
	if base := dp.base; full || len(moves) > 0 {
		return func() {
			if len(moves) > 0 {
				dp.feed.Publish(dataplane.Delta{Kind: dataplane.DeltaMoves, Moves: moves})
				dp.g.m.deltasPublished.Inc()
			}
			if !full {
				dp.publish(base, view, dp.feed.Pos())
				return
			}
			next := dp.feed.Pos()
			next.Seq++
			snap := dp.publish(base, view, next)()
			dp.feed.Publish(dataplane.Delta{Kind: dataplane.DeltaSnapshot, Snapshot: snap})
			dp.g.m.deltasPublished.Inc()
		}
	}
	return nil
}

// Feed returns the locator delta feed (exposed for tests and embedding).
func (g *Gateway) Feed() *dataplane.Feed { return g.dp.feed }

// LocatorSnapshotWire returns the current wire-format locator snapshot — the
// same value GET /v1/locator/snapshot serves — building it if this is the
// first request since the round that published it.
func (g *Gateway) LocatorSnapshotWire() *dataplane.Snapshot { return (*g.dp.wire.Load())() }
