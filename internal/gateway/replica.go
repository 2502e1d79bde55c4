package gateway

// Replica: the follower-side HTTP front end. It serves the same read
// endpoint shape as the leader gateway — so a load balancer can spread
// lookups across replicas — but every answer comes from the follower's
// locally applied state, stamped with the LSN it is valid at. Lookups
// refused by the follower's fencing rules (unapplied scaling epoch, lag
// over the staleness budget) surface as 503 with Retry-After, the same
// retryable contract the leader uses for admission pressure, so clients
// need one backoff policy, not two.
//
// A Replica has no mailbox and no owner goroutine: it is a thin mapping
// from HTTP to the follower's atomic view. Control operations (scale,
// sessions, checkpoints) do not exist here — replicas are read animals.

import (
	"errors"
	"net/http"

	"scaddar/internal/cm"
	"scaddar/internal/obs"
	"scaddar/internal/repl"
)

// ReplicaConfig configures the follower-serving HTTP front end.
type ReplicaConfig struct {
	// Follower is the running journal tail to serve from. Required.
	Follower *repl.Follower
	// Registry, when non-nil, is served at GET /v1/metrics — pass the one
	// the follower publishes into to expose its lag and apply counters.
	Registry *obs.Registry
}

// Replica serves read traffic from a follower's applied state.
type Replica struct {
	cfg ReplicaConfig
	mux *http.ServeMux
}

// NewReplica builds the follower front end.
func NewReplica(cfg ReplicaConfig) (*Replica, error) {
	if cfg.Follower == nil {
		return nil, errors.New("gateway: ReplicaConfig.Follower is required")
	}
	rp := &Replica{cfg: cfg, mux: http.NewServeMux()}
	rp.mux.HandleFunc("GET /v1/healthz", rp.handleHealthz)
	rp.mux.HandleFunc("GET /v1/replication", rp.handleReplication)
	rp.mux.HandleFunc("GET /v1/objects", rp.handleObjects)
	rp.mux.HandleFunc("GET /v1/objects/{id}/blocks/{idx}", rp.handleRead)
	if cfg.Registry != nil {
		rp.mux.HandleFunc("GET /v1/metrics", rp.handleMetrics)
	}
	return rp, nil
}

// Handler returns the replica's HTTP handler.
func (rp *Replica) Handler() http.Handler { return rp.mux }

// replicaRetryAfter is the Retry-After hint for fenced/stale reads: the
// replica usually catches up within a heartbeat, so one second.
const replicaRetryAfter = "1"

// writeReplicaError maps follower read errors: unknown names are 404,
// fencing and staleness are retryable 503s, the rest are 500.
func writeReplicaError(w http.ResponseWriter, err error) {
	var status int
	switch {
	case errors.Is(err, cm.ErrUnknownObject),
		errors.Is(err, cm.ErrBlockOutOfRange):
		status = http.StatusNotFound
	case errors.Is(err, cm.ErrEpochFenced),
		errors.Is(err, cm.ErrStaleRead):
		w.Header().Set("Retry-After", replicaRetryAfter)
		status = http.StatusServiceUnavailable
	default:
		status = http.StatusInternalServerError
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (rp *Replica) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := rp.cfg.Follower.Status()
	body := map[string]any{
		"status":     "ok",
		"role":       "replica",
		"appliedLsn": st.AppliedLSN,
		"lagEvents":  st.LagEvents,
		"connected":  st.Connected,
		"leader":     st.Leader,
	}
	code := http.StatusOK
	if !st.Bootstrapped {
		body["status"] = "bootstrapping"
		w.Header().Set("Retry-After", replicaRetryAfter)
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}

func (rp *Replica) handleReplication(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"role": "replica", "follower": rp.cfg.Follower.Status()})
}

func (rp *Replica) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = rp.cfg.Registry.WritePrometheus(w)
}

func (rp *Replica) handleObjects(w http.ResponseWriter, r *http.Request) {
	v := rp.cfg.Follower.View()
	if v == nil {
		writeReplicaError(w, cm.ErrStaleRead)
		return
	}
	writeJSON(w, http.StatusOK, v.Snap.Objects())
}

// replicaReadResponse is the gateway's block-read reply plus the replica's
// position: the applied LSN the answer is valid at and the lag behind the
// leader.
type replicaReadResponse struct {
	Object       int    `json:"object"`
	Block        int    `json:"block"`
	Disk         int    `json:"disk"`
	Healthy      bool   `json:"healthy"`
	Reorganizing bool   `json:"reorganizing"`
	AppliedLSN   uint64 `json:"appliedLsn"`
	LagEvents    uint64 `json:"lagEvents"`
}

func (rp *Replica) handleRead(w http.ResponseWriter, r *http.Request) {
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
	d, lsn, err := rp.cfg.Follower.Locate(id, idx)
	if err != nil {
		writeReplicaError(w, err)
		return
	}
	v := rp.cfg.Follower.View()
	writeJSON(w, http.StatusOK, replicaReadResponse{
		Object:       id,
		Block:        idx,
		Disk:         d,
		Healthy:      v.Snap.Healthy(d),
		Reorganizing: v.Snap.Reorganizing(),
		AppliedLSN:   lsn,
		LagEvents:    v.Lag(),
	})
}
