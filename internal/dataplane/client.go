package dataplane

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
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
// fresh snapshot an epoch delta carries. Locate is safe for any number of
// concurrent readers; many streaming sessions share one ClientLocator, so a
// reorganization costs one delta subscription, not one lookup per session
// per round.
type ClientLocator struct {
	factory scaddar.SourceFactory

	mu      sync.RWMutex
	seq     uint64
	n       int
	reorg   bool
	catalog *placement.Catalog // nil until the first snapshot
	chain   *scaddar.CompiledChain
	pending map[[2]int]int // (object, index) → pre-operation disk
	preOf   []int
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
	// PreOf and Pending[].From are indexed and returned by Locate: a
	// snapshot off the wire is refused unless both stay inside the array.
	if snap.PreOf != nil && len(snap.PreOf) != hist.N() {
		return fmt.Errorf("dataplane: snapshot preOf has %d entries for %d disks", len(snap.PreOf), hist.N())
	}
	for _, d := range snap.PreOf {
		if d < 0 || d >= snap.N {
			return fmt.Errorf("dataplane: snapshot preOf entry %d outside [0,%d)", d, snap.N)
		}
	}
	for _, p := range snap.Pending {
		if p.From < 0 || p.From >= snap.N {
			return fmt.Errorf("dataplane: snapshot pending block (%d,%d) from disk %d outside [0,%d)",
				p.Object, p.Index, p.From, snap.N)
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
	c.seq = snap.Seq
	c.n = snap.N
	c.reorg = snap.Reorganizing
	c.catalog = catalog
	c.chain = strat.History().Compile() // strat is private to this snapshot: nothing scales it
	c.pending = pending
	c.preOf = preOf
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
		snap := *d.Snapshot
		snap.Seq = d.Seq
		return c.ApplySnapshot(&snap)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.catalog == nil {
		return ErrSnapshotRequired
	}
	if d.Seq <= c.seq {
		return nil
	}
	if d.Seq != c.seq+1 {
		return fmt.Errorf("%w: have seq %d, got delta %d", ErrSnapshotRequired, c.seq, d.Seq)
	}
	if d.Kind == DeltaMoves {
		for _, m := range d.Moves {
			delete(c.pending, [2]int{m.Object, m.Index})
		}
	}
	c.seq = d.Seq
	return nil
}

// Follow is the client end of the gateway's locator feed. It installs the
// full snapshot from base/v1/locator/snapshot before returning, then keeps
// the locator current in a background goroutine that long-polls the delta
// feed until ctx ends. Whenever the feed cannot be continued — the cursor
// fell out of the bounded ring (410), a sequence gap, an unreadable reply —
// it resynchronizes from a fresh snapshot. wait blocks until that goroutine
// has exited and returns how many resyncs it performed.
func (c *ClientLocator) Follow(ctx context.Context, hc *http.Client, base string) (wait func() int, err error) {
	resync := func() error {
		var snap Snapshot
		if err := getJSON(ctx, hc, base+"/v1/locator/snapshot", &snap); err != nil {
			return fmt.Errorf("dataplane: locator snapshot: %w", err)
		}
		return c.ApplySnapshot(&snap)
	}
	if err := resync(); err != nil {
		return nil, err
	}
	resyncs, done := 0, make(chan struct{})
	go func() {
		defer close(done)
		for ctx.Err() == nil {
			var page struct {
				Deltas []Delta `json:"deltas"`
			}
			err := getJSON(ctx, hc, fmt.Sprintf("%s/v1/locator/deltas?after=%d", base, c.Seq()), &page)
			for i := 0; err == nil && i < len(page.Deltas); i++ {
				err = c.Apply(page.Deltas[i])
			}
			switch {
			case err == nil || ctx.Err() != nil: // applied, or the caller is done
			case resync() == nil:
				resyncs++
			default:
				// The gateway is unreachable or draining: do not spin on it.
				select {
				case <-ctx.Done():
				case <-time.After(100 * time.Millisecond):
				}
			}
		}
	}()
	return func() int { <-done; return resyncs }, nil
}

// getJSON decodes one 200 reply; any other outcome is an error.
func getJSON(ctx context.Context, hc *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// Seq returns the feed sequence the locator reflects.
func (c *ClientLocator) Seq() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.seq
}

// N returns the logical disk count.
func (c *ClientLocator) N() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.n
}

// Reorganizing reports whether a migration was draining at the reflected
// sequence.
func (c *ClientLocator) Reorganizing() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.reorg
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

// Locate computes the logical disk currently holding a block, applying the
// same mid-migration rules as the server's LocatorSnapshot: pending blocks
// resolve to their pre-operation home, and scale-down drains translate
// through the pre-removal numbering. Safe for concurrent callers.
func (c *ClientLocator) Locate(object, index int) (int, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
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
