package gateway

// HTTP handlers for the streaming data plane (stream.go): the chunked
// round-paced session stream and the snapshot+delta locator side channel.

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"time"

	"scaddar/internal/cm"
	"scaddar/internal/dataplane"
)

// maxDeltaWait bounds a locator delta long-poll: an idle feed parks the
// request at most this long before answering with whatever it has (usually
// nothing), so clients see liveness without the server pinning connections
// forever.
const maxDeltaWait = 30 * time.Second

// handleStream serves a session's playback as a chunked stream of CRC-framed
// blocks, paced by the round driver: one data frame per round while the
// client keeps up, then one end frame saying why the stream finished (done,
// stopped, or evicted for falling behind). Only the attach is a command under
// RequestTimeout; the response lives as long as the session plays.
func (g *Gateway) handleStream(w http.ResponseWriter, r *http.Request) {
	id, err := pathInt(r, "id")
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError,
			map[string]string{"error": "gateway: response writer cannot stream"})
		return
	}
	// Attach through the mailbox so registration is serialized with Tick:
	// delivery starts with the next round's block, never between a state
	// check and the map insert. The attach is bounded by RequestTimeout like
	// any command; the stream itself has no deadline.
	// The discard hook compensates an attach that lands after this handler
	// has already reported a timeout: without it the phantom consumer holds
	// ErrStreamAttached against every reconnect until eviction. Detach only
	// — the client saw a 504 and is retrying this same session, so the
	// stream must keep playing (unattended, so no byte work) for the retry
	// to pick up; stopping it here would hand the reconnect a dead stream.
	discard := func(v any) {
		g.dp.detach(id, v.(*dataplane.Session))
	}
	v, err := g.execDiscard(r.Context(), false, func(s *cm.Server) (any, error) {
		st, err := s.Stream(id)
		if err != nil {
			return nil, err
		}
		obj, err := s.Object(st.Object)
		if err != nil {
			return nil, err
		}
		sess := dataplane.NewSession(st.ID, st.Object, obj.BlockBytes, dataplane.SessionBufferConfig{
			Buffer:     g.cfg.StreamBuffer,
			EvictAfter: g.cfg.StreamEvictAfter,
		})
		// A stream that already finished gets an immediate end frame.
		if st.State != cm.StreamPlaying && st.State != cm.StreamPaused {
			reason := dataplane.CloseStopped
			if st.State == cm.StreamDone {
				reason = dataplane.CloseDone
			}
			sess.Close(reason)
		}
		if err := g.dp.attach(sess); err != nil {
			return nil, err
		}
		// A paused-open session starts playing only now, with its consumer
		// in place — the next round's block is the first one paced out, so
		// nothing was ever delivered to nobody. Resuming after attach keeps
		// a lost 409 race from starting playback for the loser.
		if st.State == cm.StreamPaused {
			if err := s.ResumeStream(id); err != nil {
				g.dp.detach(id, sess)
				return nil, err
			}
		}
		return sess, nil
	}, discard)
	if err != nil {
		g.writeError(w, err)
		return
	}
	sess := v.(*dataplane.Session)
	// Detach first (Deliver holds the same lock, so nothing lands after),
	// then sweep whatever the drain loop left buffered back to the pool —
	// the disconnect/eviction edge of the payload ownership chain.
	defer func() {
		g.dp.detach(id, sess)
		sess.ReleaseBuffered()
	}()
	g.m.streamsAttached.Inc()

	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	// Each receive is one gather, by reference (Session.WriteBuffered): the
	// received chunk and everything else already buffered, then the end
	// frame if the channel closed behind them, under one flush instead of a
	// flush per chunk — at E19 scale that turns 10k flushes per round into
	// one per awake session.
	for {
		select {
		case c, open := <-sess.Chunks():
			n, end, werr := sess.WriteBuffered(w, c, open)
			g.m.streamBytes.Add(uint64(n))
			if werr != nil {
				// The connection is gone; stop the server-side stream so it
				// does not play on (and burn round bandwidth) for nobody.
				g.stopAbandonedStream(id, sess)
				return
			}
			g.m.streamFlushes.Inc()
			flusher.Flush()
			if end {
				return
			}
		case <-r.Context().Done():
			g.stopAbandonedStream(id, sess)
			return
		}
	}
}

// stopAbandonedStream ends the server-side stream of a client that
// disconnected mid-playback. Best-effort: the gateway may be draining or the
// mailbox full, in which case the stream plays out unattended (WantsPayload
// is already false once the session detaches).
func (g *Gateway) stopAbandonedStream(id int, sess *dataplane.Session) {
	if sess.Closed() {
		return
	}
	_, _ = g.exec(context.Background(), false, func(s *cm.Server) (any, error) {
		g.dp.closeStream(id, dataplane.CloseStopped)
		return nil, s.StopStream(id)
	})
}

// handleLocatorSnapshot serves the full locator snapshot — the baseline of
// the snapshot+delta protocol. One atomic load and, for the first fetch after
// a round that changed it, one build on this goroutine; no mailbox: ten
// thousand clients bootstrapping cost the round driver nothing.
func (g *Gateway) handleLocatorSnapshot(w http.ResponseWriter, r *http.Request) {
	g.m.snapshotFetches.Inc()
	writeJSON(w, http.StatusOK, g.LocatorSnapshotWire())
}

// handleLocatorDeltas long-polls the locator feed: ?after=N parks until a
// delta newer than N exists, then returns everything newer the feed retains —
// a page may begin with a snapshot delta at a sequence above N+1, which the
// ring begins at and which supersedes what came before it. The park is
// bounded by maxDeltaWait, by ?wait=<milliseconds> when that is shorter (a
// follower that reads liveness off the poll asks for one inside its own
// timeout), by the client's context, and by the round driver stopping: nothing
// is published after it, so a parked poll is answered with what it has instead
// of holding the HTTP server's shutdown, and a later one is refused like any
// request to a stopped gateway. 410 Gone when the feed cannot be continued from
// N (dataplane.ErrDeltaGone; ?incarnation= names the feed N counts in): the
// client refetches the snapshot and resubscribes.
func (g *Gateway) handleLocatorDeltas(w http.ResponseWriter, r *http.Request) {
	var q [3]uint64
	for i, name := range [...]string{"incarnation", "after", "wait"} {
		var err error
		if q[i], err = queryUint(r, name); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
	}
	g.m.deltaPolls.Inc()
	wait := maxDeltaWait
	if q[2] > 0 && q[2] < uint64(maxDeltaWait/time.Millisecond) {
		wait = time.Duration(q[2]) * time.Millisecond
	}
	if g.halting.Err() != nil {
		g.writeError(w, ErrDraining)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	defer cancel()
	defer context.AfterFunc(g.halting, cancel)()
	deltas, seq, err := g.dp.feed.Wait(ctx, dataplane.FeedPos{ID: q[0], Seq: q[1]})
	if err != nil {
		writeJSON(w, http.StatusGone, map[string]any{"error": err.Error(), "seq": seq})
		return
	}
	writeJSON(w, http.StatusOK, dataplane.DeltaPage{Deltas: deltas, Seq: seq, Incarnation: g.dp.feed.Pos().ID})
}

// queryUint parses an optional unsigned query parameter (absent means 0).
func queryUint(r *http.Request, name string) (uint64, error) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, errors.New("bad " + name + " " + strconv.Quote(s))
	}
	return v, nil
}
