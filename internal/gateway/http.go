package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"scaddar/internal/binproto"
	"scaddar/internal/cm"
	"scaddar/internal/dataplane"
	"scaddar/internal/disk"
	"scaddar/internal/reorg"
	"scaddar/internal/workload"
)

// maxBodyBytes bounds control-request bodies; every legitimate body here is
// a few dozen bytes of JSON.
const maxBodyBytes = 1 << 20

// routes installs the v1 API on the gateway's mux.
func (g *Gateway) routes() {
	g.mux = http.NewServeMux()
	g.mux.HandleFunc("GET /v1/healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /v1/metrics", g.handleMetrics)
	g.mux.HandleFunc("GET /v1/status", g.handleStatus)
	g.mux.HandleFunc("GET /v1/trace", g.handleTrace)
	g.mux.HandleFunc("GET /v1/objects", g.handleObjects)
	g.mux.HandleFunc("GET /v1/objects/{id}/blocks/{idx}", g.handleRead)
	g.mux.HandleFunc("POST /v1/sessions", g.handleOpenSession)
	g.mux.HandleFunc("GET /v1/sessions/{id}", g.handleGetSession)
	g.mux.HandleFunc("GET /v1/sessions/{id}/stream", g.handleStream)
	g.mux.HandleFunc("GET /v1/locator/snapshot", g.handleLocatorSnapshot)
	g.mux.HandleFunc("GET /v1/locator/deltas", g.handleLocatorDeltas)
	g.mux.HandleFunc("POST /v1/sessions/{id}/seek", g.handleSeek)
	g.mux.HandleFunc("DELETE /v1/sessions/{id}", g.handleCloseSession)
	g.mux.HandleFunc("POST /v1/scale", g.handleScale)
	g.mux.HandleFunc("POST /v1/disks/{id}/fail", g.handleDiskFail)
	g.mux.HandleFunc("POST /v1/disks/{id}/repair", g.handleDiskRepair)
	g.mux.HandleFunc("POST /v1/admin/checkpoint", g.handleCheckpoint)
	g.mux.HandleFunc("GET /v1/admin/objects", g.handleAdminObjects)
	g.mux.HandleFunc("POST /v1/admin/objects", g.handleAdminAddObject)
	g.mux.HandleFunc("DELETE /v1/admin/objects/{id}", g.handleAdminRemoveObject)
	g.mux.HandleFunc("GET /v1/replication", g.handleReplication)
	g.mux.HandleFunc("GET "+binproto.UpgradePath, g.handleBinUpgrade)
}

// adminObject is the full catalog entry shipped over the admin surface —
// everything a peer server needs to recreate the object, including the
// placement seed the read-only /v1/objects listing withholds.
type adminObject struct {
	ID                int    `json:"id"`
	Seed              uint64 `json:"seed"`
	Blocks            int    `json:"blocks"`
	BlockBytes        int64  `json:"blockBytes"`
	BitrateBitsPerSec int64  `json:"bitrateBitsPerSec"`
}

// handleAdminObjects lists the full catalog (IDs, seeds, sizes, bitrates).
// It reads through the command mailbox, not the snapshot, so the answer is
// serialized with any in-flight catalog mutation — the consistency a
// cluster migration needs when it enumerates a source shard.
func (g *Gateway) handleAdminObjects(w http.ResponseWriter, r *http.Request) {
	v, err := g.exec(r.Context(), false, func(s *cm.Server) (any, error) {
		cat := s.Catalog()
		out := make([]adminObject, len(cat))
		for i, obj := range cat {
			out[i] = adminObject{
				ID: obj.ID, Seed: obj.Seed, Blocks: obj.Blocks,
				BlockBytes: obj.BlockBytes, BitrateBitsPerSec: obj.BitrateBitsPerSec,
			}
		}
		return out, nil
	})
	if err != nil {
		g.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// handleAdminAddObject loads one object into the catalog. A zero blockBytes
// adopts the server's configured block size. 409 on a duplicate ID or seed;
// the event is journaled (and synced before the reply) like every other
// mutating control op.
func (g *Gateway) handleAdminAddObject(w http.ResponseWriter, r *http.Request) {
	var req adminObject
	if err := decodeBody(w, r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	_, err := g.mutate(w, r, func(s *cm.Server) (any, error) {
		obj := workload.Object{
			ID: req.ID, Seed: req.Seed, Blocks: req.Blocks,
			BlockBytes: req.BlockBytes, BitrateBitsPerSec: req.BitrateBitsPerSec,
		}
		if obj.BlockBytes == 0 {
			obj.BlockBytes = s.Config().BlockBytes
		}
		return nil, s.AddObject(obj)
	})
	if err != nil {
		if isDuplicateObject(err) {
			writeJSON(w, http.StatusConflict, map[string]string{"error": err.Error()})
			return
		}
		g.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]int{"object": req.ID})
}

// isDuplicateObject recognizes the catalog's duplicate-ID/seed rejections,
// which carry no typed sentinel (they predate the admin surface). Mapped to
// 409 so a migration retry can treat "already there" as success.
func isDuplicateObject(err error) bool {
	return err != nil && strings.Contains(err.Error(), "duplicate object")
}

// handleAdminRemoveObject deletes an object and its blocks. Removal with
// active streams is refused with 409 unless ?force=1, which stops the
// object's streams first — the semantics a cluster migration wants when it
// evicts an object from its old home shard.
func (g *Gateway) handleAdminRemoveObject(w http.ResponseWriter, r *http.Request) {
	id, err := pathInt(r, "id")
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	force := r.URL.Query().Get("force") == "1"
	v, err := g.mutate(w, r, func(s *cm.Server) (any, error) {
		stopped := 0
		if force {
			stopped = s.StopObjectStreams(id)
			g.dp.closeObject(id)
		}
		if err := s.RemoveObject(id); err != nil {
			return nil, err
		}
		return map[string]int{"object": id, "streamsStopped": stopped}, nil
	})
	if err != nil {
		g.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// handleReplication reports the journal-shipping leader's view: durable
// frontier, replication epoch, and every live follower connection. 501
// when this gateway runs without a replication leader.
func (g *Gateway) handleReplication(w http.ResponseWriter, r *http.Request) {
	if g.cfg.ReplLeader == nil {
		writeJSON(w, http.StatusNotImplemented,
			map[string]string{"error": "gateway: replication not enabled (serve -repl-addr)"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"role": "leader", "leader": g.cfg.ReplLeader.Status()})
}

// Handler returns the gateway's HTTP handler: the mux, with nothing around
// it. The only place a request waits is the command mailbox, so that is where
// RequestTimeout is applied (exec); reads, scrapes, streams, long-polls and
// upgraded connections never enter it.
func (g *Gateway) Handler() http.Handler { return g.mux }

// mutate is exec for a handler that changes placement, the catalogue or a
// disk's health: execute has flushed the command into the locator feed by the
// time it returns, and the reply is stamped with a feed position that includes
// it (dataplane.FeedHeader) — the floor of a router that forwarded the request.
func (g *Gateway) mutate(w http.ResponseWriter, r *http.Request, fn func(*cm.Server) (any, error)) (any, error) {
	v, err := g.exec(r.Context(), true, fn)
	w.Header().Set(dataplane.FeedHeader, g.dp.feed.Pos().String())
	return v, err
}

// jsonContentType is the preallocated Content-Type value of a block-read
// reply; shared, never written through.
var jsonContentType = []string{"application/json"}

// writeJSON writes v as a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// retryAfterSeconds is the Retry-After hint: one round, at least a second.
func (g *Gateway) retryAfterSeconds() string {
	s := int(math.Ceil(g.round.Seconds()))
	if s < 1 {
		s = 1
	}
	return strconv.Itoa(s)
}

// writeError maps typed server/gateway errors to protocol outcomes: bad
// names are 404, pressure is 503 with Retry-After, control conflicts are
// 409, deadlines are 504, everything else is a 500.
func (g *Gateway) writeError(w http.ResponseWriter, err error) {
	var status int
	switch {
	case errors.Is(err, cm.ErrUnknownObject),
		errors.Is(err, cm.ErrUnknownStream),
		errors.Is(err, cm.ErrBlockOutOfRange):
		status = http.StatusNotFound
	case errors.Is(err, cm.ErrAdmissionRejected),
		errors.Is(err, ErrOverloaded),
		errors.Is(err, ErrDraining),
		errors.Is(err, cm.ErrEpochFenced),
		errors.Is(err, cm.ErrStaleRead):
		// Fenced and stale replica reads are retryable by contract: the
		// condition clears as soon as the replica applies further.
		w.Header().Set("Retry-After", g.retryAfterSeconds())
		status = http.StatusServiceUnavailable
	case errors.Is(err, cm.ErrBusy),
		errors.Is(err, ErrStreamAttached),
		errors.Is(err, disk.ErrBadHealthTransition),
		errors.Is(err, disk.ErrDiskRebuilding):
		status = http.StatusConflict
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	default:
		status = http.StatusInternalServerError
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// pathInt parses an integer path segment.
func pathInt(r *http.Request, name string) (int, error) {
	v, err := strconv.Atoi(r.PathValue(name))
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", name, r.PathValue(name))
	}
	return v, nil
}

// decodeBody decodes a bounded JSON request body into v. An empty body is
// allowed and leaves v untouched.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(v); err != nil && !errors.Is(err, io.EOF) {
		return fmt.Errorf("bad request body: %v", err)
	}
	return nil
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := g.Status()
	body := map[string]any{
		"status":       "ok",
		"rounds":       st.Rounds,
		"disks":        st.Disks,
		"degraded":     st.Degraded,
		"reorganizing": st.Reorganizing,
	}
	code := http.StatusOK
	if st.Journal != nil {
		// Durability status: journal position plus what the last recovery
		// found (torn tail, dropped segments/checkpoints).
		body["journal"] = st.Journal
		if st.Journal.Err != "" {
			// The server still serves, but nothing new is durable: surface
			// it where load balancers look.
			body["status"] = "journal-failed"
		}
	}
	if st.Draining {
		body["status"] = "draining"
		w.Header().Set("Retry-After", g.retryAfterSeconds())
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}

// handleCheckpoint forces a checkpoint now — operators call it before
// planned maintenance to make recovery instant. 501 without a store; 409
// while a reorganization is draining or the array is degraded (cm.ErrBusy:
// a checkpoint taken then would restore an all-healthy array and strand the
// journaled fail/rebuild events).
func (g *Gateway) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if g.cfg.Store == nil {
		writeJSON(w, http.StatusNotImplemented,
			map[string]string{"error": "gateway: no durable store attached (serve --data-dir)"})
		return
	}
	v, err := g.exec(r.Context(), false, func(s *cm.Server) (any, error) {
		lsn, err := g.cfg.Store.Checkpoint(s)
		if err != nil {
			return nil, err
		}
		return map[string]any{"lsn": lsn}, nil
	})
	if err != nil {
		g.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// handleMetrics serves the registry in Prometheus text exposition format:
// gateway latency histograms, per-disk load gauges, round and migration
// counters, journal fsync stats — everything the observers publish.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := g.reg.WritePrometheus(w); err != nil {
		g.logf("gateway: metrics: %v", err)
	}
}

// handleStatus serves the JSON status view (the old /v1/metrics payload):
// one structured snapshot for dashboards that want state, not samples.
func (g *Gateway) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, g.Status())
}

// handleTrace dumps the span ring, oldest first — the recent control-plane
// history: rounds with migrations, scale operations, failures, rebuilds.
func (g *Gateway) handleTrace(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"total": g.trace.Total(),
		"spans": g.trace.Dump(),
	})
}

func (g *Gateway) handleObjects(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, g.snap.Load().Objects())
}

// handleRead is the concurrent read path: no mailbox, no locks — one
// atomic pointer load, a catalogue probe and the compiled chain
// (cm.LocatorSnapshot.Locate). Its latency is recorded
// split by phase (admission = parse+validate, locate = snapshot lookup,
// service = response delivery); the instrumentation is atomic cells only
// and adds zero allocations per request.
func (g *Gateway) handleRead(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	id, err := pathInt(r, "id")
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	idx, err := pathInt(r, "idx")
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	t1 := time.Now()
	sn := g.snap.Load()
	d, err := sn.Locate(id, idx)
	t2 := time.Now()
	if err != nil {
		g.m.readErrors.Inc()
		g.writeError(w, err)
		return
	}
	g.m.reads.Inc()
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	_ = binproto.WriteReadReply(w, id, idx, binproto.Location{Disk: d, Healthy: sn.Healthy(d), Reorganizing: sn.Reorganizing()})
	t3 := time.Now()
	g.m.observeRead(t1.Sub(t0), t2.Sub(t1), t3.Sub(t2))
}

// sessionResponse describes one session.
type sessionResponse struct {
	Session  int    `json:"session"`
	Object   int    `json:"object"`
	Position int    `json:"position"`
	State    string `json:"state"`
	Served   int    `json:"served"`
	Hiccups  int    `json:"hiccups"`
	Blocks   int    `json:"blocks"`
}

func sessionBody(st *cm.Stream, blocks int) sessionResponse {
	return sessionResponse{
		Session:  st.ID,
		Object:   st.Object,
		Position: st.Position,
		State:    st.State.String(),
		Served:   st.Served,
		Hiccups:  st.Hiccups,
		Blocks:   blocks,
	}
}

func (g *Gateway) handleOpenSession(w http.ResponseWriter, r *http.Request) {
	if g.draining.Load() {
		g.m.sessionsRejected.Inc()
		g.writeError(w, ErrDraining)
		return
	}
	var req struct {
		Object   int  `json:"object"`
		Position *int `json:"position"`
		// Paused admits the session without starting playback: the slot is
		// reserved now, the pacer delivers nothing until a consumer attaches
		// (GET …/stream resumes it). The cure for admission-to-attach head
		// drops when the two requests race the round driver.
		Paused bool `json:"paused"`
	}
	if err := decodeBody(w, r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	// The discard hook stops a stream whose opener has already been told the
	// open timed out: the client will retry and get a fresh session, so the
	// orphan must not play on, holding round capacity nobody is counting.
	discard := func(v any) {
		id := v.(sessionResponse).Session
		_, _ = g.exec(context.Background(), false, func(s *cm.Server) (any, error) {
			return nil, s.StopStream(id)
		})
	}
	v, err := g.execDiscard(r.Context(), false, func(s *cm.Server) (any, error) {
		start := s.StartStream
		if req.Paused {
			start = s.StartStreamPaused
		}
		st, err := start(req.Object)
		if err != nil {
			return nil, err
		}
		if req.Position != nil {
			if err := s.SeekStream(st.ID, *req.Position); err != nil {
				_ = s.StopStream(st.ID)
				return nil, err
			}
		}
		obj, err := s.Object(st.Object)
		if err != nil {
			return nil, err
		}
		return sessionBody(st, obj.Blocks), nil
	}, discard)
	if err != nil {
		g.m.sessionsRejected.Inc()
		g.writeError(w, err)
		return
	}
	g.m.sessionsOpened.Inc()
	writeJSON(w, http.StatusCreated, v)
}

func (g *Gateway) handleGetSession(w http.ResponseWriter, r *http.Request) {
	id, err := pathInt(r, "id")
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	v, err := g.exec(r.Context(), false, func(s *cm.Server) (any, error) {
		st, err := s.Stream(id)
		if err != nil {
			return nil, err
		}
		obj, err := s.Object(st.Object)
		if err != nil {
			return nil, err
		}
		return sessionBody(st, obj.Blocks), nil
	})
	if err != nil {
		g.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (g *Gateway) handleSeek(w http.ResponseWriter, r *http.Request) {
	id, err := pathInt(r, "id")
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	var req struct {
		Position int `json:"position"`
	}
	if err := decodeBody(w, r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	v, err := g.exec(r.Context(), false, func(s *cm.Server) (any, error) {
		if err := s.SeekStream(id, req.Position); err != nil {
			return nil, err
		}
		st, err := s.Stream(id)
		if err != nil {
			return nil, err
		}
		obj, err := s.Object(st.Object)
		if err != nil {
			return nil, err
		}
		return sessionBody(st, obj.Blocks), nil
	})
	if err != nil {
		g.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (g *Gateway) handleCloseSession(w http.ResponseWriter, r *http.Request) {
	id, err := pathInt(r, "id")
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	_, err = g.exec(r.Context(), false, func(s *cm.Server) (any, error) {
		if err := s.StopStream(id); err != nil {
			return nil, err
		}
		// StopStream outside Tick emits no StreamClosed; end any attached
		// streaming consumer here, on the owner goroutine.
		g.dp.closeStream(id, dataplane.CloseStopped)
		return nil, nil
	})
	if err != nil {
		g.writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// scaleResponse summarizes an accepted scaling operation.
type scaleResponse struct {
	Op           string  `json:"op"`
	NBefore      int     `json:"nBefore"`
	NAfter       int     `json:"nAfter"`
	Moves        int     `json:"moves"`
	MoveFraction float64 `json:"moveFraction"`
}

func (g *Gateway) handleScale(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Add          int   `json:"add"`
		Remove       []int `json:"remove"`
		Redistribute bool  `json:"redistribute"`
	}
	if err := decodeBody(w, r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	modes := 0
	if req.Add > 0 {
		modes++
	}
	if len(req.Remove) > 0 {
		modes++
	}
	if req.Redistribute {
		modes++
	}
	if modes != 1 {
		writeJSON(w, http.StatusBadRequest,
			map[string]string{"error": `specify exactly one of "add", "remove", or "redistribute"`})
		return
	}
	v, err := g.mutate(w, r, func(s *cm.Server) (any, error) {
		var (
			plan *reorg.Plan
			op   string
			err  error
		)
		switch {
		case req.Add > 0:
			op = "add"
			plan, err = s.ScaleUp(req.Add)
		case len(req.Remove) > 0:
			op = "remove"
			plan, err = s.ScaleDown(req.Remove...)
		default:
			op = "redistribute"
			plan, err = s.FullRedistribute()
		}
		if err != nil {
			return nil, err
		}
		return scaleResponse{
			Op:           op,
			NBefore:      plan.NBefore,
			NAfter:       plan.NAfter,
			Moves:        len(plan.Moves),
			MoveFraction: plan.MoveFraction(),
		}, nil
	})
	if err != nil {
		g.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, v)
}

func (g *Gateway) handleDiskFail(w http.ResponseWriter, r *http.Request) {
	g.handleDiskOp(w, r, "failed", (*cm.Server).FailDisk)
}

func (g *Gateway) handleDiskRepair(w http.ResponseWriter, r *http.Request) {
	g.handleDiskOp(w, r, "repairing", (*cm.Server).RepairDisk)
}

func (g *Gateway) handleDiskOp(w http.ResponseWriter, r *http.Request, verb string, op func(*cm.Server, int) error) {
	id, err := pathInt(r, "id")
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	_, err = g.mutate(w, r, func(s *cm.Server) (any, error) {
		return nil, op(s, id)
	})
	if err != nil {
		g.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"disk": id, "state": verb})
}
