package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"
)

// Topology operations: add, drain, and remove a shard, plus the migration
// engine they share. The movement contract mirrors SCADDAR's RO1 one level
// up: an operation migrates exactly the objects whose jump hash differs
// between the old and new routing widths — ~1/(K+1) of the keys on an add
// to K+1 shards, the drained shard's own keys on a drain — and nothing
// else. Each object's migration is idempotent (destination written before
// the source is cleared, duplicates and already-gones tolerated), which is
// what lets a restarted router finish a cut-short operation by simply
// re-running it.

// catalogObject is the admin-surface catalog entry shipped between shards.
type catalogObject struct {
	// ID is the object ID (the routing key).
	ID int `json:"id"`
	// Seed is the SCADDAR placement seed.
	Seed uint64 `json:"seed"`
	// Blocks is the object's block count.
	Blocks int `json:"blocks"`
	// BlockBytes is the object's block size.
	BlockBytes int64 `json:"blockBytes"`
	// BitrateBitsPerSec is the display rate.
	BitrateBitsPerSec int64 `json:"bitrateBitsPerSec"`
}

// MigrationStats summarizes one topology operation's key movement.
type MigrationStats struct {
	// Objects is the total key population at the time of the operation.
	Objects int `json:"objects"`
	// Moved is how many objects the operation migrated.
	Moved int `json:"moved"`
	// Fraction is Moved/Objects (0 when the cluster was empty).
	Fraction float64 `json:"fraction"`
	// Ideal is the minimal fraction jump hashing predicts for the
	// operation: 1/newK for an add, 1/oldK for a drain.
	Ideal float64 `json:"ideal"`
}

// AddShard joins a shard gateway to the cluster: it is appended as the new
// tail routing slot and exactly the jump-hash-moved key fraction migrates
// onto it. The manifest is written with a pending-op marker before any key
// moves and rewritten clean after the migration completes, so a crash
// between the two leaves a resumable operation, never a lost object. The
// shard must be reachable and must not already hold objects.
func (r *Router) AddShard(ctx context.Context, url string) (ShardInfo, MigrationStats, error) {
	r.opMu.Lock()
	defer r.opMu.Unlock()
	var stats MigrationStats
	t := r.topo.Load()
	if t.pending != nil {
		return ShardInfo{}, stats, ErrOpInFlight
	}
	if t.buckets != len(t.slots) {
		return ShardInfo{}, stats, fmt.Errorf("cluster: remove drained shards before adding (have %d slots, %d routing): %w",
			len(t.slots), t.buckets, ErrBadShardOp)
	}
	if r.nextID >= MaxShardID {
		return ShardInfo{}, stats, fmt.Errorf("cluster: shard ID space exhausted (%d)", MaxShardID)
	}
	for _, s := range t.slots {
		if s.url == url {
			return ShardInfo{}, stats, fmt.Errorf("cluster: shard %d already at %s: %w", s.id, url, ErrBadShardOp)
		}
	}
	sh, err := r.newShard(r.nextID, url, ShardActive)
	if err != nil {
		return ShardInfo{}, stats, err
	}
	if err := r.vetJoining(ctx, sh); err != nil {
		sh.closePool() // the handle is dropped; its probe connection must not outlive it
		return ShardInfo{}, stats, err
	}
	r.nextID++
	slots := append(append([]*shard(nil), t.slots...), sh)
	nt := &topology{
		version: t.version,
		slots:   slots,
		buckets: t.buckets,
		pending: &pendingOp{kind: "add", oldBuckets: t.buckets, newBuckets: t.buckets + 1, target: sh},
		pins:    t.pins,
	}
	r.follow(sh)
	r.publish(nt)
	if err := r.saveLocked(); err != nil {
		return ShardInfo{}, stats, err
	}
	stats, err = r.completePendingLocked(ctx)
	if err != nil {
		return sh.info(), stats, err
	}
	r.logf("cluster: shard %d joined at %s: moved %d/%d objects (%.1f%%, ideal %.1f%%)",
		sh.id, url, stats.Moved, stats.Objects, 100*stats.Fraction, 100*stats.Ideal)
	return sh.info(), stats, nil
}

// vetJoining checks that a shard about to join is reachable and empty.
func (r *Router) vetJoining(ctx context.Context, sh *shard) error {
	if err := sh.probe(ctx); err != nil {
		return fmt.Errorf("cluster: new shard unreachable: %w: %w", err, ErrBadShardOp)
	}
	cat, err := r.fetchCatalog(ctx, sh)
	if err != nil {
		return fmt.Errorf("cluster: new shard catalog: %w", err)
	}
	if len(cat) > 0 {
		return fmt.Errorf("cluster: new shard %s already holds %d objects: %w", sh.url, len(cat), ErrBadShardOp)
	}
	return nil
}

// DrainShard migrates every key off the tail routing shard and marks it
// Drained. Jump hashing removes minimally only at the tail (the same
// interface restriction the placement-layer Jump strategy documents), so
// only the highest routing slot can be drained; the drained shard then
// awaits RemoveShard. During the drain the shard refuses new sessions
// (503+Retry-After through the router) while reads keep serving from
// wherever each object currently lives.
func (r *Router) DrainShard(ctx context.Context, id int) (MigrationStats, error) {
	r.opMu.Lock()
	defer r.opMu.Unlock()
	var stats MigrationStats
	t := r.topo.Load()
	if t.pending != nil {
		return stats, ErrOpInFlight
	}
	if t.buckets == 0 {
		return stats, ErrNoShards
	}
	tail := t.slots[t.buckets-1]
	if tail.id != id {
		return stats, fmt.Errorf("cluster: only the tail routing shard %d can be drained (got %d): jump hashing removes minimally at the tail only: %w",
			tail.id, id, ErrBadShardOp)
	}
	if t.buckets == 1 {
		return stats, fmt.Errorf("cluster: refusing to drain the last routing shard %d: %w", id, ErrBadShardOp)
	}
	// Pinned objects are placed by operator decision, not by the hash, so
	// the drain must not silently overrule it; refuse until they are moved.
	for obj, pinned := range t.pins {
		if pinned == tail.id {
			return stats, fmt.Errorf("cluster: object %d is pinned to shard %d; move it before draining: %w",
				obj, pinned, ErrBadShardOp)
		}
	}
	tail.setState(ShardDraining)
	nt := &topology{
		version: t.version,
		slots:   t.slots,
		buckets: t.buckets,
		pending: &pendingOp{kind: "drain", oldBuckets: t.buckets, newBuckets: t.buckets - 1, target: tail},
		pins:    t.pins,
	}
	r.publish(nt)
	if err := r.saveLocked(); err != nil {
		return stats, err
	}
	stats, err := r.completePendingLocked(ctx)
	if err != nil {
		return stats, err
	}
	r.logf("cluster: shard %d drained: moved %d/%d objects (%.1f%%, ideal %.1f%%)",
		id, stats.Moved, stats.Objects, 100*stats.Fraction, 100*stats.Ideal)
	return stats, nil
}

// RemoveShard drops a Drained shard from the topology. Draining and
// removal are separate steps so operators can verify the drain (and keep
// the empty shard as a fast re-add target) before forgetting it.
func (r *Router) RemoveShard(id int) error {
	r.opMu.Lock()
	defer r.opMu.Unlock()
	t := r.topo.Load()
	if t.pending != nil {
		return ErrOpInFlight
	}
	idx := -1
	for i, s := range t.slots {
		if s.id == id {
			idx = i
		}
	}
	if idx < 0 {
		return fmt.Errorf("cluster: no shard %d: %w", id, ErrBadShardOp)
	}
	if idx < t.buckets {
		return fmt.Errorf("cluster: shard %d still owns routing slot %d; drain it first: %w", id, idx, ErrBadShardOp)
	}
	slots := append(append([]*shard(nil), t.slots[:idx]...), t.slots[idx+1:]...)
	r.publish(&topology{version: t.version + 1, slots: slots, buckets: t.buckets, pins: t.pins})
	t.slots[idx].unfollow()
	t.slots[idx].closePool()
	return r.saveLocked()
}

// Reconcile completes a pending topology operation (typically one a
// previous router process left behind), migrating whatever keys remain.
// It is a no-op when the topology is stable.
func (r *Router) Reconcile(ctx context.Context) error {
	r.opMu.Lock()
	defer r.opMu.Unlock()
	if r.topo.Load().pending == nil {
		return nil
	}
	_, err := r.completePendingLocked(ctx)
	return err
}

// completePendingLocked runs the pending operation's key migration to the
// end and finalizes the topology + manifest. opMu held. On error the
// pending marker stays in place (in memory and in the manifest) so the
// operation can be resumed.
func (r *Router) completePendingLocked(ctx context.Context) (MigrationStats, error) {
	t := r.topo.Load()
	p := t.pending
	start := time.Now()
	stats, err := r.migrateKeys(ctx, t)
	if err != nil {
		return stats, err
	}
	r.m.migrateSeconds.ObserveDuration(time.Since(start))
	r.m.migrations.Inc()
	if p.kind == "drain" {
		p.target.setState(ShardDrained)
	}
	r.publish(&topology{version: t.version + 1, slots: t.slots, buckets: p.newBuckets, pins: t.pins})
	return stats, r.saveLocked()
}

// migrateKeys moves every object whose routing slot differs between the
// pending operation's old and new widths. The key population is enumerated
// from the shards' own catalogs (they are the progress record: a crashed
// earlier attempt shows up as objects already at their new home, possibly
// still duplicated at the old one). Objects are processed in ID order for
// determinism.
func (r *Router) migrateKeys(ctx context.Context, t *topology) (MigrationStats, error) {
	p := t.pending
	var stats MigrationStats
	if p.oldBuckets == 0 {
		// First shard of an empty cluster: no keys can exist yet.
		return stats, nil
	}
	stats.Ideal = 1 / float64(p.newBuckets)
	if p.kind == "drain" {
		stats.Ideal = 1 / float64(p.oldBuckets)
	}
	// holder[id] = slot index currently holding the object; meta[id] = its
	// catalog entry. A duplicate (mid-crash state) prefers the new home.
	holder := make(map[int]int)
	meta := make(map[int]catalogObject)
	for i := 0; i < len(t.slots); i++ {
		cat, err := r.fetchCatalog(ctx, t.slots[i])
		if err != nil {
			return stats, fmt.Errorf("cluster: catalog of shard %d: %w", t.slots[i].id, err)
		}
		for _, obj := range cat {
			if _, dup := holder[obj.ID]; dup {
				// Keep the copy at the object's new home; the other is
				// the stale duplicate a crash left behind.
				if i == RouteSlot(obj.ID, p.newBuckets) {
					holder[obj.ID] = i
				}
				continue
			}
			holder[obj.ID] = i
			meta[obj.ID] = obj
		}
	}
	// Pinned objects sit where the operator put them regardless of the
	// routing width, so they are not part of the movable population (and
	// must not skew the moved-fraction accounting).
	ids := make([]int, 0, len(holder))
	for id := range holder {
		if _, pinned := t.pins[id]; pinned {
			continue
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	stats.Objects = len(ids)
	for _, id := range ids {
		oldSlot := RouteSlot(id, p.oldBuckets)
		newSlot := RouteSlot(id, p.newBuckets)
		if oldSlot == newSlot {
			continue
		}
		stats.Moved++
		src, dst := t.slots[holder[id]], t.slots[newSlot]
		if holder[id] == newSlot {
			// Already landed (resumed operation): flip routing first, then
			// clear any stale duplicate the crash left at the old slot.
			p.moved.Store(id, struct{}{})
			if err := r.deleteObject(ctx, t.slots[oldSlot], id); err != nil {
				return stats, err
			}
			continue
		}
		if err := r.addObject(ctx, dst, meta[id]); err != nil {
			return stats, fmt.Errorf("cluster: add object %d to shard %d: %w", id, dst.id, err)
		}
		// Flip routing to the new home BEFORE clearing the source: between
		// the two the object exists on both shards and reads stay valid
		// either way, whereas the reverse order opens a window where the
		// routed (old) home has already dropped it.
		p.moved.Store(id, struct{}{})
		if err := r.deleteObject(ctx, src, id); err != nil {
			return stats, fmt.Errorf("cluster: remove object %d from shard %d: %w", id, src.id, err)
		}
		r.m.objectsMoved.Inc()
	}
	if stats.Objects > 0 {
		stats.Fraction = float64(stats.Moved) / float64(stats.Objects)
	}
	return stats, nil
}

// fetchCatalog lists a shard's full object catalog over the admin surface.
func (r *Router) fetchCatalog(ctx context.Context, s *shard) ([]catalogObject, error) {
	var out []catalogObject
	err := r.shardCall(ctx, s, http.MethodGet, "/v1/admin/objects", nil, func(status int, body []byte) error {
		if status != http.StatusOK {
			return retryable(status, body)
		}
		return json.Unmarshal(body, &out)
	})
	return out, err
}

// addObject loads an object onto a shard; "already there" is success.
func (r *Router) addObject(ctx context.Context, s *shard, obj catalogObject) error {
	body, err := json.Marshal(obj)
	if err != nil {
		return err
	}
	return r.shardCall(ctx, s, http.MethodPost, "/v1/admin/objects", body, func(status int, resp []byte) error {
		switch status {
		case http.StatusCreated, http.StatusConflict:
			// 409 = duplicate object: an earlier (crashed) attempt already
			// landed it. 409 can also be cm.ErrBusy (mid-reorganization),
			// which the shard spells differently; distinguish by body.
			if status == http.StatusConflict && !bytes.Contains(resp, []byte("duplicate object")) {
				return retryable(status, resp)
			}
			return nil
		default:
			return retryable(status, resp)
		}
	})
}

// deleteObject force-removes an object from a shard; "already gone" is
// success. Force semantics stop any playing streams first — their viewers
// re-open through the router and land on the new home shard.
func (r *Router) deleteObject(ctx context.Context, s *shard, id int) error {
	path := fmt.Sprintf("/v1/admin/objects/%d?force=1", id)
	return r.shardCall(ctx, s, http.MethodDelete, path, nil, func(status int, resp []byte) error {
		switch status {
		case http.StatusOK, http.StatusNotFound:
			return nil
		default:
			return retryable(status, resp)
		}
	})
}

// errRetry marks shard responses worth retrying (backpressure, transient
// conflict, transport failure).
type errRetry struct{ err error }

// Error satisfies the error interface.
func (e errRetry) Error() string { return e.err.Error() }

// Unwrap exposes the underlying cause.
func (e errRetry) Unwrap() error { return e.err }

// retryable classifies a shard response: 503 and 409 are transient
// (overload, reorganization in flight), everything else is terminal.
func retryable(status int, body []byte) error {
	err := fmt.Errorf("shard status %d: %s", status, bytes.TrimSpace(body))
	if status == http.StatusServiceUnavailable || status == http.StatusConflict {
		return errRetry{err}
	}
	return err
}

// shardCall performs one admin call against a shard with the per-shard
// timeout, retrying transient failures with capped backoff until ctx
// expires. handle inspects the response and returns errRetry to request
// another attempt; an over-limit reply is terminal.
func (r *Router) shardCall(ctx context.Context, s *shard, method, path string, body []byte,
	handle func(status int, body []byte) error) error {
	backoff := 10 * time.Millisecond
	for {
		rep, err := s.call(ctx, method, path, body)
		switch {
		case err == nil:
			err = handle(rep.status, rep.body)
		case !errors.Is(err, errReplyTooLarge):
			err = errRetry{err}
		}
		var re errRetry
		if err == nil || !errors.As(err, &re) {
			return err
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%w (last: %v)", ctx.Err(), re.err)
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 500*time.Millisecond {
			backoff = 500 * time.Millisecond
		}
	}
}
