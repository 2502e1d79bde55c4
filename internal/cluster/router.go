package cluster

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scaddar/internal/dataplane"
	"scaddar/internal/obs"
)

// RouterConfig tunes the cluster router.
type RouterConfig struct {
	// ManifestPath is the cluster manifest file; topology changes are
	// persisted there atomically so a router restart recovers (and, if a
	// migration was cut short, completes) the topology. Empty means an
	// ephemeral in-memory topology (tests, examples).
	ManifestPath string
	// ShardTimeout bounds every routed or fanned-out sub-request to one
	// shard. Zero means 2s.
	ShardTimeout time.Duration
	// OpTimeout bounds a whole topology operation (shard add/drain),
	// including its key migration. Zero means 2 minutes.
	OpTimeout time.Duration
	// ProbeInterval is the health-probe period. Zero means 1s; negative
	// disables active probing (passive marking from routed requests still
	// applies).
	ProbeInterval time.Duration
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// shard is the router's runtime handle on one shard gateway.
type shard struct {
	id  int
	url string

	// addr, host and prefix are url split for the wire; timeout is the
	// router's ShardTimeout; shardHdr is the preallocated ShardHeader value
	// of every reply routed here; idle (HTTP), binIdle (upgraded), busy and
	// poolClosed are the connection pool (shardconn.go).
	addr, host, prefix string
	timeout            time.Duration
	shardHdr           []string
	idle, binIdle      chan *shardConn
	busy               atomic.Int64
	poolClosed         atomic.Bool

	state   atomic.Int32 // ShardState
	healthy atomic.Bool

	// The shard's view (view.go). follow sets loc, the follower's locator, and
	// unfollow, which stops it, before the handle is published. view is loc
	// while reads may be answered from it; viewState the follower's last
	// transition (syncing, then serving, dropped or refused); floor the newest
	// feed position the shard has told this router of; lease how long after
	// born (follow's start, read on the monotonic clock) a view may be served.
	loc       *dataplane.ClientLocator
	unfollow  func()
	born      time.Time
	view      atomic.Pointer[dataplane.ClientLocator]
	viewState atomic.Value // string
	floor     atomic.Pointer[dataplane.FeedPos]
	lease     atomic.Int64

	readsLocal  *obs.Counter
	viewSeq     *obs.Gauge
	viewSyncs   *obs.Counter
	viewRefused *obs.Counter
	routed      *obs.Counter
	routedErrs  *obs.Counter
	fanoutErrs  *obs.Counter
	dials       *obs.Counter
	connRetries *obs.Counter
	healthyG    *obs.Gauge
	connsIdle   *obs.Gauge
	connsBusy   *obs.Gauge
}

// State returns the shard's lifecycle state.
func (s *shard) State() ShardState { return ShardState(s.state.Load()) }

// setState transitions the lifecycle state.
func (s *shard) setState(st ShardState) { s.state.Store(int32(st)) }

// setHealthy records a probe or routed-request outcome.
func (s *shard) setHealthy(ok bool) {
	s.healthy.Store(ok)
	if ok {
		s.healthyG.Set(1)
	} else {
		s.healthyG.Set(0)
	}
}

// info renders the shard as its manifest entry.
func (s *shard) info() ShardInfo {
	return ShardInfo{ID: s.id, URL: s.url, State: s.State().String()}
}

// pendingOp is the in-memory view of a topology change whose key migration
// is still running: the old and new routing widths, and the set of moved
// objects already landed on their new home. Reads consult it lock-free —
// an object routes to its old home until the instant its migration
// completes, then to the new one.
type pendingOp struct {
	kind       string // "add" | "drain"
	oldBuckets int
	newBuckets int
	target     *shard
	moved      sync.Map // object ID → struct{}
}

// topology is the atomically-published routing state: the ordered shard
// slots, how many of them own keys, any in-flight operation, and the
// pinned-object overrides. The pins map is immutable once published — a
// move installs a fresh topology with a fresh map.
type topology struct {
	version int
	slots   []*shard
	buckets int
	pending *pendingOp
	pins    map[int]int // object ID → shard ID, overriding jump hash
}

// shardFor routes an object to its owning shard: a pin wins outright,
// otherwise jump hashing decides, honoring a pending operation's
// per-object migration progress. Returns nil when the cluster has no
// routable shards.
func (t *topology) shardFor(object int) *shard {
	if t == nil {
		return nil
	}
	if id, ok := t.pins[object]; ok {
		if sh := t.shardByID(id); sh != nil {
			return sh
		}
	}
	if p := t.pending; p != nil {
		if p.oldBuckets == 0 {
			return t.slots[RouteSlot(object, p.newBuckets)]
		}
		oldSlot := RouteSlot(object, p.oldBuckets)
		newSlot := RouteSlot(object, p.newBuckets)
		if oldSlot == newSlot {
			return t.slots[oldSlot]
		}
		if _, ok := p.moved.Load(object); ok {
			return t.slots[newSlot]
		}
		return t.slots[oldSlot]
	}
	if t.buckets == 0 {
		return nil
	}
	return t.slots[RouteSlot(object, t.buckets)]
}

// shardByID finds a shard handle by stable ID.
func (t *topology) shardByID(id int) *shard {
	if t == nil {
		return nil
	}
	for _, s := range t.slots {
		if s.id == id {
			return s
		}
	}
	return nil
}

// Router is the cluster front door: one HTTP surface over K shard
// gateways, with jump-consistent-hash placement, health probing, fan-out
// aggregation, and manifest-journaled topology operations.
type Router struct {
	cfg RouterConfig
	mux *http.ServeMux
	reg *obs.Registry
	m   *routerMetrics

	topo atomic.Pointer[topology]

	// opMu serializes topology operations and manifest writes; nextID is
	// the shard ID allocator, guarded by it.
	opMu   sync.Mutex
	nextID int

	stop      chan struct{}
	proberEnd chan struct{}
	stopOnce  sync.Once
}

// NewRouter creates a router, recovering topology from the manifest when
// one exists. If the manifest records a pending operation, the router
// resumes serving immediately — routing reads around the half-finished
// migration — and completes the migration in the background (Reconcile
// runs it synchronously if preferred).
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.ShardTimeout == 0 {
		cfg.ShardTimeout = 2 * time.Second
	}
	if cfg.OpTimeout == 0 {
		cfg.OpTimeout = 2 * time.Minute
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = time.Second
	}
	reg := obs.NewRegistry()
	r := &Router{
		cfg:       cfg,
		reg:       reg,
		m:         newRouterMetrics(reg),
		stop:      make(chan struct{}),
		proberEnd: make(chan struct{}),
	}
	man, err := LoadManifest(cfg.ManifestPath)
	if err != nil {
		return nil, err
	}
	if man == nil {
		r.publish(&topology{})
	} else {
		if err := r.restore(man); err != nil {
			return nil, err
		}
	}
	r.routes()
	if cfg.ProbeInterval > 0 {
		go r.probeLoop()
	} else {
		close(r.proberEnd)
	}
	if r.topo.Load().pending != nil {
		go r.reconcileLoop()
	}
	return r, nil
}

func (r *Router) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// newShard builds a runtime handle with its metric children resolved. Shards
// are plain-HTTP gateways: base must be http://host[:port][/prefix].
func (r *Router) newShard(id int, base string, st ShardState) (*shard, error) {
	u, err := url.Parse(base)
	if err != nil || u.Scheme != "http" || u.Host == "" || u.RawQuery != "" || u.Fragment != "" {
		return nil, fmt.Errorf("cluster: shard URL %q: want http://host[:port][/prefix]: %w", base, ErrBadShardOp)
	}
	addr := u.Host
	if u.Port() == "" {
		addr = net.JoinHostPort(u.Hostname(), "80")
	}
	label := shardLabel(id)
	s := &shard{
		id:          id,
		url:         base,
		addr:        addr,
		host:        u.Host,
		prefix:      strings.TrimSuffix(u.EscapedPath(), "/"),
		timeout:     r.cfg.ShardTimeout,
		shardHdr:    []string{label},
		idle:        make(chan *shardConn, maxIdleConns),
		binIdle:     make(chan *shardConn, maxIdleConns),
		readsLocal:  r.m.readsLocal.With(label),
		viewSeq:     r.m.viewSeq.With(label),
		viewSyncs:   r.m.viewSyncs.With(label),
		viewRefused: r.m.viewRefused.With(label),
		routed:      r.m.routed.With(label),
		routedErrs:  r.m.routedErrs.With(label),
		fanoutErrs:  r.m.fanoutErrs.With(label),
		dials:       r.m.dials.With(label),
		connRetries: r.m.connRetries.With(label),
		healthyG:    r.m.healthy.With(label),
		connsIdle:   r.m.connsIdle.With(label),
		connsBusy:   r.m.connsBusy.With(label),
	}
	s.setState(st)
	// Optimistic until the first probe or routed request says otherwise.
	s.setHealthy(true)
	return s, nil
}

// restore rebuilds the runtime topology from a loaded manifest.
func (r *Router) restore(man *Manifest) error {
	slots := make([]*shard, len(man.Shards))
	for i, info := range man.Shards {
		st, err := parseShardState(info.State)
		if err != nil {
			return err
		}
		if slots[i], err = r.newShard(info.ID, info.URL, st); err != nil {
			// An https:// shard joined before the router dialed shards itself.
			return fmt.Errorf("manifest shard %d: %w (the router speaks plain HTTP to its shards: "+
				"set the shard's \"url\" in %s to its http:// address and restart)", info.ID, err, r.cfg.ManifestPath)
		}
	}
	t := &topology{version: man.Version, slots: slots, buckets: man.Buckets, pins: copyPins(man.Pins)}
	if p := man.Pending; p != nil {
		target := t.shardByID(p.ShardID)
		if target == nil {
			return fmt.Errorf("cluster: pending op names unknown shard %d", p.ShardID)
		}
		t.pending = &pendingOp{
			kind: p.Kind, oldBuckets: p.OldBuckets, newBuckets: p.NewBuckets, target: target,
		}
	}
	r.nextID = man.NextID
	for _, s := range slots {
		r.follow(s)
	}
	r.publish(t)
	r.logf("cluster: restored topology v%d: %d shards, %d routing slots, pending=%v",
		man.Version, len(man.Shards), man.Buckets, man.Pending != nil)
	return nil
}

// publish installs a topology and refreshes the summary gauges.
func (r *Router) publish(t *topology) {
	r.topo.Store(t)
	r.m.shards.Set(float64(len(t.slots)))
	r.m.buckets.Set(float64(t.buckets))
	r.m.version.Set(float64(t.version))
	r.m.pins.Set(float64(len(t.pins)))
}

// copyPins clones a pin map; nil and empty both come back nil so empty
// topologies stay allocation-free and manifests omit the field.
func copyPins(pins map[int]int) map[int]int {
	if len(pins) == 0 {
		return nil
	}
	out := make(map[int]int, len(pins))
	for obj, id := range pins {
		out[obj] = id
	}
	return out
}

// manifestLocked renders the current topology as a manifest. opMu held.
func (r *Router) manifestLocked() *Manifest {
	t := r.topo.Load()
	man := &Manifest{
		Version: t.version,
		NextID:  r.nextID,
		Buckets: t.buckets,
		Shards:  make([]ShardInfo, len(t.slots)),
	}
	for i, s := range t.slots {
		man.Shards[i] = s.info()
	}
	man.Pins = copyPins(t.pins)
	if p := t.pending; p != nil {
		man.Pending = &PendingOp{
			Kind: p.kind, ShardID: p.target.id,
			OldBuckets: p.oldBuckets, NewBuckets: p.newBuckets,
		}
	}
	return man
}

// saveLocked persists the current topology. opMu held.
func (r *Router) saveLocked() error {
	return r.manifestLocked().Save(r.cfg.ManifestPath)
}

// Topology returns the current manifest-shaped view of the topology.
func (r *Router) Topology() Manifest {
	r.opMu.Lock()
	defer r.opMu.Unlock()
	return *r.manifestLocked()
}

// Close stops the prober, background reconciliation and the shards' followers
// and closes the idle shard connections. It does not touch the shards — they
// are independent processes with their own lifecycles.
func (r *Router) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.proberEnd
	for _, s := range r.topo.Load().slots {
		s.unfollow()
		s.closePool()
	}
}

// probeLoop marks shard health from periodic /v1/healthz probes.
func (r *Router) probeLoop() {
	defer close(r.proberEnd)
	tick := time.NewTicker(r.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-tick.C:
			for _, s := range r.topo.Load().slots {
				s.setHealthy(s.probe(context.Background()) == nil)
			}
		}
	}
}

// probe checks one shard's health endpoint.
func (s *shard) probe(ctx context.Context) error {
	rep, err := s.call(ctx, http.MethodGet, "/v1/healthz", nil)
	if err != nil {
		return err
	}
	if rep.status != http.StatusOK {
		return fmt.Errorf("cluster: shard %d healthz status %d", s.id, rep.status)
	}
	return nil
}

// reconcileLoop finishes a pending topology operation found in the
// manifest at startup, retrying until it succeeds or the router closes.
func (r *Router) reconcileLoop() {
	backoff := 100 * time.Millisecond
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		ctx, cancel := context.WithTimeout(context.Background(), r.cfg.OpTimeout)
		err := r.Reconcile(ctx)
		cancel()
		if err == nil {
			return
		}
		r.logf("cluster: reconcile: %v (retrying in %s)", err, backoff)
		select {
		case <-r.stop:
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 5*time.Second {
			backoff = 5 * time.Second
		}
	}
}

// sessionID encodes a shard-local session as a cluster-wide one.
func sessionID(shardID, local int) int { return local*MaxShardID + shardID }

// splitSessionID inverts sessionID.
func splitSessionID(cluster int) (shardID, local int) {
	return cluster % MaxShardID, cluster / MaxShardID
}
