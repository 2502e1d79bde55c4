package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"scaddar/internal/binproto"
	"scaddar/internal/cm"
)

// maxBodyBytes bounds control-request bodies at the router edge.
const maxBodyBytes = 1 << 20

// ShardHeader is the response header the router stamps on every routed
// request with the owning shard's ID — how clients (and loadgen's cluster
// mode) attribute latency and skew per shard without a second lookup.
const ShardHeader = "X-Scaddar-Shard"

// routes installs the cluster API on the router's mux: the shards' /v1
// surface served transparently, plus the /v1/cluster topology operations.
func (r *Router) routes() {
	r.mux = http.NewServeMux()
	r.mux.HandleFunc("GET /v1/healthz", r.handleHealthz)
	r.mux.HandleFunc("GET /v1/metrics", r.handleMetrics)
	r.mux.HandleFunc("GET /v1/status", r.handleStatus)
	r.mux.HandleFunc("GET /v1/trace", r.handleTrace)
	r.mux.HandleFunc("GET /v1/objects", r.handleObjects)
	r.mux.HandleFunc("GET /v1/objects/{id}/blocks/{idx}", r.handleRead)
	r.mux.HandleFunc("POST /v1/sessions", r.handleOpenSession)
	r.mux.HandleFunc("GET /v1/sessions/{id}", r.handleSession)
	r.mux.HandleFunc("POST /v1/sessions/{id}/seek", r.handleSession)
	r.mux.HandleFunc("DELETE /v1/sessions/{id}", r.handleSession)
	r.mux.HandleFunc("POST /v1/scale", r.handleScale)
	r.mux.HandleFunc("GET /v1/admin/objects", r.handleAdminObjects)
	r.mux.HandleFunc("POST /v1/admin/objects", r.handleAdminAddObject)
	r.mux.HandleFunc("DELETE /v1/admin/objects/{id}", r.handleAdminRemoveObject)
	r.mux.HandleFunc("GET /v1/cluster/shards", r.handleShards)
	r.mux.HandleFunc("POST /v1/cluster/shards", r.handleShardOp)
	r.mux.HandleFunc("POST /v1/cluster/objects/{id}/move", r.handleMoveObject)
}

// Handler returns the router's HTTP handler: the mux, with nothing around it.
// A data-path request runs under its caller's context and is bounded hop by
// hop — a read and its at most two chases, ShardTimeout each (roundTrip); the
// two handlers that migrate keys apply OpTimeout themselves.
func (r *Router) Handler() http.Handler { return r.mux }

// writeJSON writes v as a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeUnavailable answers 503 with a Retry-After hint — the router's
// backpressure shape for a down or draining shard: the cluster stays up,
// the affected keys come back when the shard (or their migration) does.
func (r *Router) writeUnavailable(w http.ResponseWriter, err error) {
	r.m.unavailable.Inc()
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
}

// writeError maps router errors to protocol outcomes.
func (r *Router) writeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrNoShards), errors.Is(err, ErrShardDown), errors.Is(err, ErrShardDraining):
		r.writeUnavailable(w, err)
	case errors.Is(err, ErrOpInFlight):
		writeJSON(w, http.StatusConflict, map[string]string{"error": err.Error()})
	case errors.Is(err, ErrBadShardOp):
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
	case errors.Is(err, errReplyTooLarge):
		writeJSON(w, http.StatusBadGateway, map[string]string{"error": err.Error()})
	case errors.Is(err, ErrUnknownObject):
		writeJSON(w, http.StatusNotFound, map[string]string{"error": err.Error()})
	case errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusGatewayTimeout, map[string]string{"error": err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
	}
}

// pathInt parses an integer path segment.
func pathInt(req *http.Request, name string) (int, error) {
	v, err := strconv.Atoi(req.PathValue(name))
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", name, req.PathValue(name))
	}
	return v, nil
}

// readBody slurps a bounded request body.
func readBody(w http.ResponseWriter, req *http.Request) ([]byte, error) {
	return io.ReadAll(http.MaxBytesReader(w, req.Body, maxBodyBytes))
}

// routableShard resolves the owning shard for an object and gates on its
// availability: nil shard means an empty cluster, an unhealthy shard is
// down, and a draining/drained shard refuses new sessions when
// forSession is set.
func (r *Router) routableShard(object int, forSession bool) (*shard, error) {
	sh := r.topo.Load().shardFor(object)
	if sh == nil {
		return nil, ErrNoShards
	}
	if !sh.healthy.Load() {
		return nil, fmt.Errorf("%w: shard %d at %s", ErrShardDown, sh.id, sh.url)
	}
	if forSession && sh.State() != ShardActive {
		return nil, fmt.Errorf("%w: shard %d", ErrShardDraining, sh.id)
	}
	return sh, nil
}

// forward performs one request against a shard — buffered, so it can be
// retried against another shard before anything is written — and books it.
func (r *Router) forward(ctx context.Context, sh *shard, method, path string, body []byte) (shardReply, error) {
	start := time.Now()
	rep, err := sh.call(ctx, method, path, body)
	return rep, r.account(sh, start, err)
}

// account books one routed exchange of either kind. A returned error has
// bumped the shard's error counter; a transport-level one (connect, timeout,
// short reply, refused upgrade) wraps ErrShardDown and has marked the shard
// unhealthy — unless it was only a pooled connection found dead by a request
// that may not be replayed (errStaleConn); errReplyTooLarge has not.
func (r *Router) account(sh *shard, start time.Time, err error) error {
	if err != nil {
		sh.routedErrs.Inc()
		if errors.Is(err, errReplyTooLarge) {
			return fmt.Errorf("shard %d: %w", sh.id, err)
		}
		if !errors.Is(err, errStaleConn) { // the next request dials afresh and finds out
			sh.setHealthy(false)
		}
		return fmt.Errorf("%w: shard %d: %v", ErrShardDown, sh.id, err)
	}
	sh.routed.Inc()
	sh.setHealthy(true)
	r.m.proxySeconds.ObserveDuration(time.Since(start))
	return nil
}

// jsonContentType is the preallocated Content-Type value of nearly every
// forwarded reply; like shard.shardHdr it is shared, never written through.
var jsonContentType = []string{"application/json"}

// writeForwarded delivers a buffered shard response, stamping ShardHeader.
// rewrite, when non-nil, may transform the body (session ID rewriting).
func writeForwarded(w http.ResponseWriter, sh *shard, pr shardReply,
	rewrite func(status int, body []byte) []byte) {
	data := pr.body
	if rewrite != nil {
		data = rewrite(pr.status, data)
	}
	h := w.Header()
	h[ShardHeader] = sh.shardHdr // ShardHeader is in canonical form
	switch pr.contentType {
	case "":
	case jsonContentType[0]:
		h["Content-Type"] = jsonContentType
	default:
		h.Set("Content-Type", pr.contentType)
	}
	if pr.retryAfter != "" {
		h.Set("Retry-After", pr.retryAfter)
	}
	w.WriteHeader(pr.status)
	_, _ = w.Write(data)
}

// proxy forwards one request to a fixed shard and copies the response
// through — the single-shot path for requests addressed by shard, not by
// object (sessions, scale, admin deletes).
func (r *Router) proxy(w http.ResponseWriter, req *http.Request, sh *shard, path string,
	body []byte, rewrite func(status int, body []byte) []byte) {
	pr, err := r.forward(req.Context(), sh, req.Method, path, body)
	if err != nil {
		r.writeError(w, err)
		return
	}
	writeForwarded(w, sh, pr, rewrite)
}

// movedFrom reports whether the topology now routes the object to a shard
// other than sh: a 404 from sh is then the time-of-check race with a
// migration that handed the object off mid-hop, and the request chases it.
func (r *Router) movedFrom(object int, sh *shard) bool {
	cur := r.topo.Load().shardFor(object)
	return cur != nil && cur != sh
}

// handleRead answers the hot-path block lookup: from the router's view of the
// owning shard when its four conditions hold (answer), otherwise by asking the
// shard with one binary exchange ((*shard).locate). Either way the reply built
// here is the one the shard's own HTTP handler would have written, by the
// encoder it writes it with (TestRoutedReadMatchesDirect).
func (r *Router) handleRead(w http.ResponseWriter, req *http.Request) {
	id, err := pathInt(req, "id")
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	idx, idxErr := pathInt(req, "idx")
	for attempt := 0; ; attempt++ {
		sh, err := r.routableShard(id, false)
		if err != nil {
			r.writeError(w, err)
			return
		}
		var loc binproto.Location
		switch {
		case idxErr != nil:
			w.Header()[ShardHeader] = sh.shardHdr
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": idxErr.Error()})
			return
		// What the wire's u32 fields cannot name no shard holds: answered as
		// the shard would, without a hop.
		case uint64(id)>>32 != 0:
			loc.Code, loc.Msg = binproto.ErrCodeUnknownObject, fmt.Sprintf("%v: object %d", cm.ErrUnknownObject, id)
		case uint64(idx)>>32 != 0:
			loc.Code, loc.Msg = binproto.ErrCodeOutOfRange,
				fmt.Sprintf("%v: object %d has no block %d", cm.ErrBlockOutOfRange, id, idx)
		default:
			var local bool
			if loc, local = r.answer(sh, id, idx); local {
				break
			}
			start := time.Now()
			loc, err = sh.locate(req.Context(), uint32(id), uint32(idx))
			if err = r.account(sh, start, err); err != nil {
				r.writeError(w, err)
				return
			}
		}
		status := http.StatusOK // what gateway.writeError gives the sentinel the code stands for
		switch loc.Code {
		case 0:
		case binproto.ErrCodeUnknownObject, binproto.ErrCodeOutOfRange:
			status = http.StatusNotFound
		case binproto.ErrCodeBusy:
			status = http.StatusConflict
		case binproto.ErrCodeEpochFenced:
			status = http.StatusServiceUnavailable
		default:
			status = http.StatusInternalServerError
		}
		if status == http.StatusNotFound && attempt < 2 && r.movedFrom(id, sh) {
			continue
		}
		h := w.Header()
		h[ShardHeader] = sh.shardHdr // ShardHeader is in canonical form
		if status != http.StatusOK {
			if status == http.StatusServiceUnavailable {
				h.Set("Retry-After", "1")
			}
			writeJSON(w, status, map[string]string{"error": loc.Msg})
			return
		}
		h["Content-Type"] = jsonContentType
		w.WriteHeader(status)
		if req.Method != http.MethodHead {
			_ = binproto.WriteReadReply(w, id, idx, loc)
		}
		return
	}
}

// rewriteSessionID swaps a shard-local "session" field in a 2xx response
// for the cluster-wide encoding.
func rewriteSessionID(shardID int) func(int, []byte) []byte {
	return func(status int, body []byte) []byte {
		if status < 200 || status >= 300 {
			return body
		}
		var m map[string]any
		if json.Unmarshal(body, &m) != nil {
			return body
		}
		local, ok := m["session"].(float64)
		if !ok {
			return body
		}
		m["session"] = sessionID(shardID, int(local))
		out, err := json.Marshal(m)
		if err != nil {
			return body
		}
		return append(out, '\n')
	}
}

// handleOpenSession routes a session open to the object's home shard and
// rewrites the returned session ID into the cluster-wide encoding.
func (r *Router) handleOpenSession(w http.ResponseWriter, req *http.Request) {
	body, err := readBody(w, req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	var open struct {
		Object int `json:"object"`
	}
	if err := json.Unmarshal(body, &open); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request body: " + err.Error()})
		return
	}
	for attempt := 0; ; attempt++ {
		sh, err := r.routableShard(open.Object, true)
		if err != nil {
			r.writeError(w, err)
			return
		}
		pr, err := r.forward(req.Context(), sh, req.Method, "/v1/sessions", body)
		if err != nil {
			r.writeError(w, err)
			return
		}
		if pr.status == http.StatusNotFound && attempt < 2 && r.movedFrom(open.Object, sh) {
			continue
		}
		writeForwarded(w, sh, pr, rewriteSessionID(sh.id))
		return
	}
}

// handleSession routes get/seek/close of an existing session by the shard
// embedded in its cluster-wide ID.
func (r *Router) handleSession(w http.ResponseWriter, req *http.Request) {
	cid, err := pathInt(req, "id")
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	shardID, local := splitSessionID(cid)
	sh := r.topo.Load().shardByID(shardID)
	if sh == nil {
		writeJSON(w, http.StatusNotFound,
			map[string]string{"error": fmt.Sprintf("cluster: session %d names unknown shard %d", cid, shardID)})
		return
	}
	if !sh.healthy.Load() {
		r.writeUnavailable(w, fmt.Errorf("%w: shard %d", ErrShardDown, sh.id))
		return
	}
	body, err := readBody(w, req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if len(body) == 0 {
		body = nil
	}
	path := fmt.Sprintf("/v1/sessions/%d", local)
	if req.URL.Path == fmt.Sprintf("/v1/sessions/%d/seek", cid) {
		path += "/seek"
	}
	r.proxy(w, req, sh, path, body, rewriteSessionID(sh.id))
}

// handleScale forwards a disk-scaling operation to one shard, named by the
// "shard" field the cluster surface adds to the body.
func (r *Router) handleScale(w http.ResponseWriter, req *http.Request) {
	body, err := readBody(w, req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	var target struct {
		Shard *int `json:"shard"`
	}
	if err := json.Unmarshal(body, &target); err != nil || target.Shard == nil {
		writeJSON(w, http.StatusBadRequest,
			map[string]string{"error": `cluster: scale needs a "shard" field naming the shard to scale`})
		return
	}
	sh := r.topo.Load().shardByID(*target.Shard)
	if sh == nil {
		writeJSON(w, http.StatusNotFound,
			map[string]string{"error": fmt.Sprintf("cluster: no shard %d", *target.Shard)})
		return
	}
	if !sh.healthy.Load() {
		r.writeUnavailable(w, fmt.Errorf("%w: shard %d", ErrShardDown, sh.id))
		return
	}
	r.proxy(w, req, sh, "/v1/scale", body, nil)
}

// handleAdminAddObject routes an object load to its home shard — the
// cluster's ingestion path: clients need not know the placement function.
func (r *Router) handleAdminAddObject(w http.ResponseWriter, req *http.Request) {
	body, err := readBody(w, req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	var obj struct {
		ID int `json:"id"`
	}
	if err := json.Unmarshal(body, &obj); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request body: " + err.Error()})
		return
	}
	sh, err := r.routableShard(obj.ID, true)
	if err != nil {
		r.writeError(w, err)
		return
	}
	r.proxy(w, req, sh, "/v1/admin/objects", body, nil)
}

// handleAdminRemoveObject routes an object deletion to its home shard.
func (r *Router) handleAdminRemoveObject(w http.ResponseWriter, req *http.Request) {
	id, err := pathInt(req, "id")
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	sh, err := r.routableShard(id, false)
	if err != nil {
		r.writeError(w, err)
		return
	}
	path := req.URL.Path
	if req.URL.RawQuery != "" {
		path += "?" + req.URL.RawQuery
	}
	r.proxy(w, req, sh, path, nil, nil)
}

// shardOpRequest is the body of POST /v1/cluster/shards.
type shardOpRequest struct {
	// Op is "add", "drain", or "remove".
	Op string `json:"op"`
	// URL is the joining shard's base URL (add only).
	URL string `json:"url,omitempty"`
	// ID names the shard to drain or remove.
	ID *int `json:"id,omitempty"`
}

// shardOpResponse reports a topology operation's outcome.
type shardOpResponse struct {
	// Op echoes the operation.
	Op string `json:"op"`
	// Shard is the affected shard.
	Shard ShardInfo `json:"shard"`
	// Migration summarizes the key movement (add and drain).
	Migration *MigrationStats `json:"migration,omitempty"`
}

// handleShardOp executes a topology change: add a shard (migrating the
// jump-hash-moved key fraction onto it), drain the tail shard, or remove
// a drained one, under OpTimeout.
func (r *Router) handleShardOp(w http.ResponseWriter, req *http.Request) {
	body, err := readBody(w, req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	var op shardOpRequest
	if err := json.Unmarshal(body, &op); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request body: " + err.Error()})
		return
	}
	ctx, cancel := context.WithTimeout(req.Context(), r.cfg.OpTimeout)
	defer cancel()
	switch op.Op {
	case "add":
		if op.URL == "" {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": `cluster: add needs a "url"`})
			return
		}
		info, stats, err := r.AddShard(ctx, op.URL)
		if err != nil {
			r.writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, shardOpResponse{Op: "add", Shard: info, Migration: &stats})
	case "drain":
		if op.ID == nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": `cluster: drain needs an "id"`})
			return
		}
		stats, err := r.DrainShard(ctx, *op.ID)
		if err != nil {
			r.writeError(w, err)
			return
		}
		sh := r.topo.Load().shardByID(*op.ID)
		writeJSON(w, http.StatusOK, shardOpResponse{Op: "drain", Shard: sh.info(), Migration: &stats})
	case "remove":
		if op.ID == nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": `cluster: remove needs an "id"`})
			return
		}
		sh := r.topo.Load().shardByID(*op.ID)
		if sh == nil {
			writeJSON(w, http.StatusNotFound,
				map[string]string{"error": fmt.Sprintf("cluster: no shard %d", *op.ID)})
			return
		}
		if err := r.RemoveShard(*op.ID); err != nil {
			r.writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, shardOpResponse{Op: "remove", Shard: sh.info()})
	default:
		writeJSON(w, http.StatusBadRequest,
			map[string]string{"error": fmt.Sprintf("cluster: unknown op %q (want add, drain, remove)", op.Op)})
	}
}

// handleMoveObject executes a cross-shard object move: copy the object to
// the requested shard, flip routing by persisting a pin in the cluster
// manifest, then clear the source copy. Runs under OpTimeout.
func (r *Router) handleMoveObject(w http.ResponseWriter, req *http.Request) {
	id, err := pathInt(req, "id")
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	body, err := readBody(w, req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	var mv struct {
		Shard *int `json:"shard"`
	}
	if err := json.Unmarshal(body, &mv); err != nil || mv.Shard == nil {
		writeJSON(w, http.StatusBadRequest,
			map[string]string{"error": `cluster: move needs a "shard" field naming the destination shard`})
		return
	}
	ctx, cancel := context.WithTimeout(req.Context(), r.cfg.OpTimeout)
	defer cancel()
	res, err := r.MoveObject(ctx, id, *mv.Shard)
	if err != nil {
		r.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// ShardView is one shard's entry in GET /v1/cluster/shards: topology
// position plus live health and routing counters.
type ShardView struct {
	// ID is the stable shard identity.
	ID int `json:"id"`
	// URL is the shard gateway's base URL.
	URL string `json:"url"`
	// State is the lifecycle state.
	State string `json:"state"`
	// Healthy reports the last probe/request outcome.
	Healthy bool `json:"healthy"`
	// Routed counts requests the router sent this shard.
	Routed int64 `json:"routed"`
	// RoutedErrors counts transport failures toward this shard.
	RoutedErrors int64 `json:"routedErrors"`
	// Dials counts connections opened to this shard; flat under steady load.
	Dials int64 `json:"dials"`
	// ConnRetries counts GETs replayed after a pooled connection was dead.
	ConnRetries int64 `json:"connRetries"`
	// ConnsIdle counts pooled connections waiting for a request right now.
	ConnsIdle int `json:"connsIdle"`
	// ConnsBusy counts requests in flight to this shard right now, the
	// follower's parked poll included.
	ConnsBusy int `json:"connsBusy"`
	// ReadsLocal counts block reads answered from the router's view of the
	// shard, without the hop.
	ReadsLocal int64 `json:"readsLocal"`
	// ViewState is the view's state: syncing, serving, dropped or refused.
	ViewState string `json:"viewState"`
	// ViewIncarnation is the incarnation of the feed the view follows.
	ViewIncarnation uint64 `json:"viewIncarnation"`
	// ViewSeq is the feed sequence the view reflects.
	ViewSeq uint64 `json:"viewSeq"`
}

// TopologyView is the payload of GET /v1/cluster/shards.
type TopologyView struct {
	// Version is the manifest topology version.
	Version int `json:"version"`
	// Buckets is the number of key-owning routing slots.
	Buckets int `json:"buckets"`
	// Pending is the in-flight topology operation, if any.
	Pending *PendingOp `json:"pending,omitempty"`
	// Pins maps explicitly placed object IDs to their shard.
	Pins map[int]int `json:"pins,omitempty"`
	// Shards lists every shard in routing order.
	Shards []ShardView `json:"shards"`
}

// topologyView renders the current topology with live counters.
func (r *Router) topologyView() TopologyView {
	t := r.topo.Load()
	out := TopologyView{
		Version: t.version, Buckets: t.buckets,
		Pins: copyPins(t.pins), Shards: make([]ShardView, len(t.slots)),
	}
	if p := t.pending; p != nil {
		out.Pending = &PendingOp{Kind: p.kind, ShardID: p.target.id,
			OldBuckets: p.oldBuckets, NewBuckets: p.newBuckets}
	}
	for i, s := range t.slots {
		pos := s.loc.Pos()
		out.Shards[i] = ShardView{
			ID: s.id, URL: s.url, State: s.State().String(), Healthy: s.healthy.Load(),
			Routed: int64(s.routed.Value()), RoutedErrors: int64(s.routedErrs.Value()),
			Dials: int64(s.dials.Value()), ConnRetries: int64(s.connRetries.Value()),
			ConnsIdle: len(s.idle) + len(s.binIdle), ConnsBusy: int(s.busy.Load()),
			ReadsLocal: int64(s.readsLocal.Value()), ViewState: s.viewState.Load().(string),
			ViewIncarnation: pos.ID, ViewSeq: pos.Seq,
		}
	}
	return out
}

// handleShards serves the live topology view.
func (r *Router) handleShards(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, r.topologyView())
}

// handleHealthz summarizes cluster health: 200 while at least one shard
// routes, 503 with Retry-After when none do.
func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	t := r.topo.Load()
	healthy := 0
	for _, s := range t.slots {
		if s.healthy.Load() {
			healthy++
		}
	}
	body := map[string]any{
		"status":  "ok",
		"shards":  len(t.slots),
		"healthy": healthy,
		"buckets": t.buckets,
		"pending": t.pending != nil,
	}
	if t.buckets == 0 && t.pending == nil {
		body["status"] = "no-shards"
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}
