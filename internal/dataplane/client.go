package dataplane

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"scaddar/internal/placement"
	"scaddar/internal/scaddar"
)

// ErrSnapshotRequired is returned when a client locator detects a gap in
// the delta sequence (or has no snapshot yet) and must refetch the full
// snapshot before locating again.
var ErrSnapshotRequired = errors.New("dataplane: client locator needs a fresh snapshot")

// ClientLocator is the client side of the snapshot+delta protocol: a local,
// pure-function replica of the server's block locator. ApplySnapshot
// installs a full Snapshot (reconstructing the placement strategy from the
// operation log with the constructor cm.RestoreServer uses); Apply folds in feed
// deltas — dropping moved blocks from the pending set, or swapping in the
// fresh snapshot an epoch delta carries. Locate and Answer are safe for any
// number of concurrent readers; many streaming sessions, or every request
// handler of a cluster router, share one ClientLocator, so a reorganization
// costs one delta subscription, not one lookup per session per round.
type ClientLocator struct {
	factory scaddar.SourceFactory

	mu        sync.RWMutex
	pos       FeedPos
	n         int
	catalog   *placement.Catalog // nil until the first snapshot
	chain     *scaddar.CompiledChain
	pending   map[[2]int]int // (object, index) → pre-operation disk
	preOf     []int
	unhealthy []int // the failed and rebuilding disks: few, so a list, not a vector of n
}

// NewClientLocator creates an empty locator over the given generator
// family, which must match the server's (the serve CLI uses SplitMix64).
func NewClientLocator(factory scaddar.SourceFactory) *ClientLocator {
	return &ClientLocator{factory: factory}
}

// ApplySnapshot installs a full snapshot, replacing all local state.
func (c *ClientLocator) ApplySnapshot(snap *Snapshot) error {
	hist := &scaddar.History{}
	if err := hist.UnmarshalBinary(snap.History); err != nil {
		return fmt.Errorf("dataplane: snapshot history: %w", err)
	}
	strat, err := placement.RestoreScaddar(hist, snap.Epoch, snap.Bits, placement.NewX0Func(c.factory))
	if err != nil {
		return err
	}
	// PreOf, Pending[].From and Unhealthy are indexed or returned by Locate
	// and Answer: a snapshot off the wire is refused unless all three stay
	// inside the array.
	if snap.PreOf != nil && len(snap.PreOf) != hist.N() {
		return fmt.Errorf("dataplane: snapshot preOf has %d entries for %d disks", len(snap.PreOf), hist.N())
	}
	for _, d := range snap.PreOf {
		if d < 0 || d >= snap.N {
			return fmt.Errorf("dataplane: snapshot preOf entry %d outside [0,%d)", d, snap.N)
		}
	}
	if snap.PreOf == nil && hist.N() > snap.N {
		return fmt.Errorf("dataplane: snapshot of %d disks carries a history of %d", snap.N, hist.N())
	}
	for _, p := range snap.Pending {
		if p.From < 0 || p.From >= snap.N {
			return fmt.Errorf("dataplane: snapshot pending block (%d,%d) from disk %d outside [0,%d)",
				p.Object, p.Index, p.From, snap.N)
		}
	}
	for _, d := range snap.Unhealthy {
		if d < 0 || d >= snap.N {
			return fmt.Errorf("dataplane: snapshot unhealthy disk %d outside [0,%d)", d, snap.N)
		}
	}
	rows := make([]placement.CatalogRow, len(snap.Objects))
	for i, o := range snap.Objects {
		rows[i] = placement.CatalogRow(o)
	}
	catalog, err := strat.ResolveCatalog(c.factory, rows)
	if err != nil {
		return err
	}
	pending := make(map[[2]int]int, len(snap.Pending))
	for _, p := range snap.Pending {
		pending[[2]int{p.Object, p.Index}] = p.From
	}
	var preOf []int
	if snap.PreOf != nil {
		preOf = append([]int(nil), snap.PreOf...)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pos = FeedPos{ID: snap.Incarnation, Seq: snap.Seq}
	c.n = snap.N
	c.catalog = catalog
	c.chain = strat.History().Compile() // strat is private to this snapshot: nothing scales it
	c.pending = pending
	c.preOf = preOf
	c.unhealthy = slices.Clone(snap.Unhealthy)
	return nil
}

// Apply folds one feed delta into the locator. Deltas must arrive in
// sequence; a gap returns ErrSnapshotRequired and the caller refetches the
// snapshot. Already-seen deltas are ignored.
func (c *ClientLocator) Apply(d Delta) error {
	if d.Kind == DeltaSnapshot {
		if d.Snapshot == nil {
			return fmt.Errorf("dataplane: snapshot delta %d without snapshot", d.Seq)
		}
		// A delta continues the feed being followed, whatever it says of itself.
		snap := *d.Snapshot
		snap.Seq, snap.Incarnation = d.Seq, c.Pos().ID
		return c.ApplySnapshot(&snap)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.catalog == nil {
		return ErrSnapshotRequired
	}
	if d.Seq <= c.pos.Seq {
		return nil
	}
	if d.Seq != c.pos.Seq+1 {
		return fmt.Errorf("%w: have seq %d, got delta %d", ErrSnapshotRequired, c.pos.Seq, d.Seq)
	}
	if d.Kind == DeltaMoves {
		for _, m := range d.Moves {
			delete(c.pending, [2]int{m.Object, m.Index})
		}
	}
	c.pos.Seq = d.Seq
	return nil
}

// Fetch performs one GET against a gateway's locator feed for Follow: path
// is /v1/locator/snapshot or /v1/locator/deltas with its query. err is the
// transport's; any status is a reply.
type Fetch func(ctx context.Context, path string) (status int, body []byte, err error)

// FollowEvent is one exchange of the Follow loop, reported once its reply has
// been applied or has failed.
type FollowEvent struct {
	// Synced marks a full snapshot installed: the first, or a resync.
	Synced bool
	// Deltas is the number of feed entries the reply carried, Bytes the size of
	// its body.
	Deltas, Bytes int
	// Took is the time from the reply's last byte to the locator reflecting it.
	Took time.Duration
	// Status is the reply's HTTP status, zero when the transport failed.
	Status int
	// Err is nil when the locator is current as of this reply. Otherwise it no
	// longer tracks the feed — it keeps answering from the position it
	// reached — until an event with Synced set.
	Err error
}

// resyncBackoff spaces snapshot attempts against a gateway that is unreachable,
// stopped or refusing.
const resyncBackoff = 100 * time.Millisecond

// Follow is the client end of the gateway's locator feed, and the one loop
// that follows it: it installs the full snapshot, then keeps the locator
// current by long-polling the delta feed until ctx ends, and returns. Whenever
// the feed cannot be continued — a 410 (the cursor fell out of the ring, or is
// of a gateway since restarted), a sequence gap, an unreadable reply, a broken
// connection — it goes back to the snapshot, and polls no delta again until
// one is installed. wait, when positive, is the long-poll bound asked of the
// gateway; observe, when non-nil, is told of every exchange on this goroutine.
func (c *ClientLocator) Follow(ctx context.Context, fetch Fetch, wait time.Duration, observe func(FollowEvent)) {
	c.follow(ctx, fetch, wait, observe, false)
}

// follow is Follow, begun at the deltas if the snapshot is already in.
func (c *ClientLocator) follow(ctx context.Context, fetch Fetch, wait time.Duration, observe func(FollowEvent), synced bool) {
	for ctx.Err() == nil {
		ev := c.exchange(ctx, fetch, wait, synced)
		if ctx.Err() != nil {
			return // the caller is done; whatever came back is not news
		}
		if observe != nil {
			observe(ev)
		}
		if !synced && ev.Err != nil {
			select {
			case <-ctx.Done():
			case <-time.After(resyncBackoff):
			}
		}
		synced = ev.Err == nil
	}
}

// exchange fetches and applies one reply: a delta page if the locator tracks
// the feed (synced), the snapshot if not.
func (c *ClientLocator) exchange(ctx context.Context, fetch Fetch, wait time.Duration, synced bool) (ev FollowEvent) {
	path := "/v1/locator/snapshot"
	if synced {
		pos := c.Pos()
		path = "/v1/locator/deltas?incarnation=" + strconv.FormatUint(pos.ID, 10) + "&after=" + strconv.FormatUint(pos.Seq, 10)
		if wait > 0 {
			path += "&wait=" + strconv.FormatInt(wait.Milliseconds(), 10)
		}
	}
	var body []byte
	ev.Status, body, ev.Err = fetch(ctx, path)
	read := time.Now()
	switch {
	case ev.Err != nil:
	case ev.Status != http.StatusOK:
		ev.Err = fmt.Errorf("dataplane: GET %s: status %d", path, ev.Status)
	case synced:
		ev.Deltas, ev.Err = c.applyPage(body)
	default:
		ev.Err = c.applySnapshot(body)
		ev.Synced = ev.Err == nil
	}
	ev.Bytes, ev.Took = len(body), time.Since(read)
	return ev
}

// applySnapshot installs the body of a snapshot reply.
func (c *ClientLocator) applySnapshot(body []byte) error {
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return fmt.Errorf("dataplane: locator snapshot: %w", err)
	}
	return c.ApplySnapshot(&snap)
}

// applyPage folds the body of a delta-page reply into the locator.
func (c *ClientLocator) applyPage(body []byte) (deltas int, err error) {
	var page DeltaPage
	if err := json.Unmarshal(body, &page); err != nil {
		return 0, fmt.Errorf("dataplane: locator deltas: %w", err)
	}
	if id := c.Pos().ID; page.Incarnation != id && page.Incarnation != 0 {
		return 0, fmt.Errorf("%w: following feed %d, page is of feed %d", ErrSnapshotRequired, id, page.Incarnation)
	}
	for _, d := range page.Deltas {
		if err := c.Apply(d); err != nil {
			return len(page.Deltas), err
		}
	}
	return len(page.Deltas), nil
}

// FollowHTTP is Follow for a client that holds an http.Client and the
// gateway's base URL: it installs the first snapshot before returning — or
// returns the error that kept it from being — and follows in a background
// goroutine until ctx ends. wait blocks until that goroutine has exited and
// returns how many resyncs it performed.
func (c *ClientLocator) FollowHTTP(ctx context.Context, hc *http.Client, base string) (wait func() int, err error) {
	fetch := func(ctx context.Context, path string) (int, []byte, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
		if err != nil {
			return 0, nil, err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, body, err
	}
	if ev := c.exchange(ctx, fetch, 0, false); ev.Err != nil {
		return nil, ev.Err
	}
	resyncs, done := 0, make(chan struct{})
	go func() {
		defer close(done)
		c.follow(ctx, fetch, 0, func(ev FollowEvent) {
			if ev.Synced {
				resyncs++
			}
		}, true)
	}()
	return func() int { <-done; return resyncs }, nil
}

// Pos returns the feed position the locator reflects.
func (c *ClientLocator) Pos() FeedPos {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.pos
}

// Seq returns the feed sequence the locator reflects.
func (c *ClientLocator) Seq() uint64 { return c.Pos().Seq }

// N returns the logical disk count.
func (c *ClientLocator) N() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.n
}

// PendingCount returns the number of blocks still awaiting their move.
func (c *ClientLocator) PendingCount() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.pending)
}

// Object returns the catalog entry for an object.
func (c *ClientLocator) Object(id int) (ObjectInfo, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.catalog != nil {
		if o := c.catalog.Find(id); o != nil {
			return ObjectInfo(o.CatalogRow), true
		}
	}
	return ObjectInfo{}, false
}

// Objects returns the catalog, sorted by ID.
func (c *ClientLocator) Objects() []ObjectInfo {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.catalog == nil {
		return nil
	}
	out := make([]ObjectInfo, 0, c.catalog.Len())
	for _, o := range c.catalog.Objects() {
		out = append(out, ObjectInfo(o.CatalogRow))
	}
	return out
}

// locate computes the logical disk currently holding a block, applying the
// same mid-migration rules as the server's LocatorSnapshot: pending blocks
// resolve to their pre-operation home, and scale-down drains translate
// through the pre-removal numbering. mu held.
func (c *ClientLocator) locate(object, index int) (int, error) {
	if c.catalog == nil {
		return 0, ErrSnapshotRequired
	}
	obj := c.catalog.Find(object)
	if obj == nil {
		return 0, fmt.Errorf("dataplane: unknown object %d", object)
	}
	if index < 0 || index >= obj.Blocks {
		return 0, fmt.Errorf("dataplane: object %d has no block %d", object, index)
	}
	if from, pending := c.pending[[2]int{object, index}]; pending {
		return from, nil
	}
	x0, ok := obj.X0(uint64(index))
	if !ok {
		return 0, fmt.Errorf("%w: object %d", placement.ErrGeneratorWidth, object)
	}
	d := c.chain.Locate(x0)
	if c.preOf != nil {
		return c.preOf[d], nil
	}
	return d, nil
}

// Locate computes the logical disk currently holding a block. Safe for
// concurrent callers.
func (c *ClientLocator) Locate(object, index int) (int, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.locate(object, index)
}

// Answer is everything the gateway's block-read reply says of a block, as of
// one feed position.
type Answer struct {
	// Disk is the logical disk holding the block.
	Disk int
	// Healthy reports that disk neither failed nor rebuilding.
	Healthy bool
	// Reorganizing reports moves still pending, as the gateway's own reply
	// counts them.
	Reorganizing bool
	// Pos is the feed position the three are of.
	Pos FeedPos
}

// Answer is Locate for a server that replies in the gateway's stead: the disk
// and the rest of the reply under one lock hold, so the four are of one
// position. ok is false, and only Pos set, when the locator cannot name the
// disk; the gateway's own answer is then the authority. Safe for concurrent
// callers.
func (c *ClientLocator) Answer(object, index int) (a Answer, ok bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	d, err := c.locate(object, index)
	if err != nil {
		return Answer{Pos: c.pos}, false
	}
	return Answer{Disk: d, Healthy: !slices.Contains(c.unhealthy, d), Reorganizing: len(c.pending) > 0, Pos: c.pos}, true
}
