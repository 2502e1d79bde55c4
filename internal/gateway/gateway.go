// Package gateway turns the round-based cm.Server simulator into a live
// concurrent network service. The server itself is single-owner: one
// goroutine may call Tick and the control surface. The gateway supplies
// that owner — a round driver that paces Tick by the wall clock while
// anything is played or recorded and runs a drain or a rebuild on an
// otherwise idle array back to back (nextRound) —
// and serializes every control operation (open/seek/close session, scaling,
// failure drills) into it through a bounded command mailbox: a channel of
// closures with per-command reply channels.
//
// The read path does not pay for that serialization. Block-location
// lookups (GET /v1/objects/{id}/blocks/{idx}) run concurrently in the HTTP
// handlers against an immutable cm.LocatorSnapshot — one probe of the
// shared placement.Catalog for the object's seed and extent, then the
// compiled REMAP chain, the paper's O(j) directory-free access function —
// republished through an atomic pointer, once the journal holds it, after
// every placement-changing event and each round of a drain. This is the
// architectural payoff of SCADDAR's AO1 property: because lookup needs no
// directory and no lock, the hot path scales with cores while scaling
// operations proceed underneath it.
//
// Overload surfaces at the edge, never as round overcommitment: admission
// rejections and a full mailbox both return 503 with Retry-After, requests
// carry per-request deadlines, and shutdown drains gracefully — new
// sessions are refused while active ones play out, bounded by the caller's
// context.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"scaddar/internal/binproto"
	"scaddar/internal/bufpool"
	"scaddar/internal/cm"
	"scaddar/internal/dataplane"
	"scaddar/internal/obs"
	"scaddar/internal/repl"
	"scaddar/internal/scaddar"
	"scaddar/internal/store"
)

// Typed gateway errors, mapped to HTTP statuses by the handler layer.
var (
	// ErrOverloaded is returned when the command mailbox is full — the
	// control plane is backlogged and the client should retry later.
	ErrOverloaded = fmt.Errorf("gateway: command mailbox full")
	// ErrDraining is returned for work refused because the gateway is
	// shutting down.
	ErrDraining = fmt.Errorf("gateway: draining")
)

// TraceSpans is the capacity of the span ring served at GET /v1/trace.
const TraceSpans = 4096

// Config tunes the gateway around a server.
type Config struct {
	// Factory builds the per-object generators for locator snapshots; it
	// must match the generator family of the server strategy's X0Func.
	// Required.
	Factory scaddar.SourceFactory
	// Round is the period of a round while something is paced by it: a
	// playing stream, a recording, or nothing to do at all. A migration or
	// rebuild nobody plays across runs its rounds back to back instead
	// (ARCHITECTURE.md, "The round driver"). Zero means the server's
	// configured (simulated) round length.
	Round time.Duration
	// MailboxDepth bounds the command backlog; commands beyond it are
	// rejected with ErrOverloaded. Zero means 64.
	MailboxDepth int
	// RequestTimeout bounds how long an HTTP request waits for a command it
	// submits to the owner goroutine (504 past it). Zero means 5s.
	RequestTimeout time.Duration
	// Store, when non-nil, is the durable state store the server journals
	// into; the server must already be bootstrapped into or recovered from
	// it, and the gateway becomes its event sink. What a reader can see is
	// durable and every command is durable before its reply (ARCHITECTURE.md,
	// "Events and replay — the durability contract"). The gateway also
	// checkpoints automatically and exposes POST /v1/admin/checkpoint.
	Store *store.Store
	// CheckpointEvery triggers an automatic checkpoint once that many
	// events accumulate past the last one (attempted at quiescent rounds;
	// a busy server retries next round). Zero means 1024.
	CheckpointEvery int
	// Registry, when non-nil, is the metrics registry the gateway publishes
	// into (and serves at GET /v1/metrics in Prometheus text format). Nil
	// means a fresh registry owned by the gateway. Pass a shared one to
	// expose the same cells on a debug listener or to adopt the registry of
	// a server this one replaces.
	Registry *obs.Registry
	// TraceRing, when non-nil, is the span ring the server's event stream
	// appends to, served at GET /v1/trace. Nil means a fresh ring of
	// TraceSpans. Pass the ring the store replayed into during recovery and
	// the live trace continues where the retrace ended.
	TraceRing *obs.Ring
	// ReplLeader, when non-nil, is the journal-shipping replication leader
	// running beside this gateway; its follower connections are reported at
	// GET /v1/replication. The leader's lifecycle is the caller's (serve
	// starts and stops it with the store).
	ReplLeader *repl.Leader
	// StreamBuffer is the per-session chunk buffer capacity for streaming
	// consumers (GET /v1/sessions/{id}/stream). Zero means the dataplane
	// default (4 chunks).
	StreamBuffer int
	// StreamEvictAfter is how many consecutive deadline misses evict a
	// streaming session. Zero means the dataplane default (8).
	StreamEvictAfter int
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// command is one serialized control operation: a closure executed by the
// owner goroutine with its result sent back on a buffered reply channel.
type command struct {
	// ctx is the submitter's context: a command whose waiter has already
	// given up (mailbox queue wait outran the request deadline) is skipped
	// instead of executed, so its side effects — an attached stream
	// consumer, an opened session — cannot leak with nobody to own them.
	ctx     context.Context
	fn      func(*cm.Server) (any, error)
	mutates bool
	reply   chan cmdResult
	// discard, when set, receives the command's successful result if the
	// submitter gave up before the reply arrived — the compensation that
	// undoes side effects (an attached consumer, an opened session) the
	// skip in execute could not prevent because fn was already running.
	discard func(v any)
}

type cmdResult struct {
	v   any
	err error
}

// Counters are the gateway-level activity counters, all updated with
// atomics from the request handlers.
type Counters struct {
	// Reads counts block-location lookups served from the snapshot.
	Reads int64 `json:"reads"`
	// ReadErrors counts lookups that failed (bad object or index).
	ReadErrors int64 `json:"readErrors"`
	// Overloads counts requests rejected because the mailbox was full.
	Overloads int64 `json:"overloads"`
	// SessionsOpened counts successful session admissions.
	SessionsOpened int64 `json:"sessionsOpened"`
	// SessionsRejected counts admission-control rejections.
	SessionsRejected int64 `json:"sessionsRejected"`
	// TickErrors counts rounds whose Tick returned an error.
	TickErrors int64 `json:"tickErrors"`
	// StreamChunks counts chunks delivered into session buffers.
	StreamChunks int64 `json:"streamChunks"`
	// StreamBytes counts bytes written to streaming response bodies: chunk
	// frames and end frames, headers included.
	StreamBytes int64 `json:"streamBytes"`
	// StreamFlushes counts flushes issued by streaming responses, one per
	// gather; chunks/flushes is the coalescing factor of the drain loop.
	StreamFlushes int64 `json:"streamFlushes"`
	// StreamMisses counts round-deadline misses (dropped chunks).
	StreamMisses int64 `json:"streamMisses"`
	// StreamEvictions counts sessions evicted for falling behind the pacer.
	StreamEvictions int64 `json:"streamEvictions"`
	// DeltasPublished counts locator feed entries.
	DeltasPublished int64 `json:"deltasPublished"`
}

// Status is the owner-published view of the server, extended with gateway
// counters at serve time. It is the payload of GET /v1/status (the
// machine-scrapeable Prometheus form of the same state lives at
// GET /v1/metrics).
type Status struct {
	// Rounds is the number of rounds ticked.
	Rounds int `json:"rounds"`
	// Disks is the current logical disk count.
	Disks int `json:"disks"`
	// Objects is the number of loaded objects.
	Objects int `json:"objects"`
	// ActiveStreams is the number of playing sessions.
	ActiveStreams int `json:"activeStreams"`
	// Reorganizing reports an in-flight migration.
	Reorganizing bool `json:"reorganizing"`
	// MigrationRemaining is the number of pending migration moves.
	MigrationRemaining int `json:"migrationRemaining"`
	// Degraded reports a failed or rebuilding disk.
	Degraded bool `json:"degraded"`
	// RebuildRemaining is the number of pending rebuild items.
	RebuildRemaining int `json:"rebuildRemaining"`
	// Draining reports graceful shutdown in progress.
	Draining bool `json:"draining"`
	// BinAddr is the binary lookup listener's address (docs/PROTOCOL.md),
	// when one is serving. Clients discover the fast read path here.
	BinAddr string `json:"binAddr,omitempty"`
	// Server is the simulator's own metrics struct.
	Server cm.Metrics `json:"server"`
	// Gateway is the gateway-level counter set.
	Gateway Counters `json:"gateway"`
	// Journal is the durable store's status, when one is attached.
	Journal *store.Status `json:"journal,omitempty"`
}

// Gateway is the concurrent HTTP front end over one cm.Server.
type Gateway struct {
	cfg   Config
	srv   *cm.Server
	round time.Duration
	mux   *http.ServeMux
	cmds  chan command

	// snap and status are the owner-published read-path views.
	snap   atomic.Pointer[cm.LocatorSnapshot]
	status atomic.Pointer[Status]

	draining atomic.Bool
	// halting ends, by haltNow from Shutdown/Close, when the owner loop is to
	// stop — and with it everything that waits on the loop's output.
	halting context.Context
	haltNow context.CancelFunc
	closed  chan struct{} // closed by the owner loop on exit

	// bin is the gateway's one binary lookup server (bin.go), closed after the
	// round driver stops; binAddr the advertised address of its listener.
	bin     *binproto.Server
	binAddr atomic.Value // string

	// reg/trace/m are the observability layer: the registry served at
	// /v1/metrics, the span ring served at /v1/trace, and the gateway's own
	// registry cells (see observe.go).
	reg   *obs.Registry
	trace *obs.Ring
	m     *gwMetrics

	// dp is the streaming data plane: per-session chunk buffers fed by the
	// server's delivery sink, and the snapshot+delta locator feed (stream.go).
	dp *dataPlane

	// pubs is the publication queue (publish.go), oldest first; owner only.
	// commit wakes the committer, and commitd the owner after a commit.
	pubs            []pub
	commit, commitd chan struct{}

	// drain times the scaling operation of the placement epoch it began in:
	// when, and the server's metrics and journal fsyncs then. Owner only.
	drain struct {
		epoch, fsyncs uint64
		began         time.Time
		from          cm.Metrics
	}
}

// New wraps a server in a gateway and starts the round driver. The gateway
// takes ownership of the server: no other goroutine may touch it except
// through Exec. Objects should be loaded before New is called (or via Exec
// afterwards).
func New(srv *cm.Server, cfg Config) (*Gateway, error) {
	if srv == nil {
		return nil, fmt.Errorf("gateway: nil server")
	}
	if cfg.Factory == nil {
		return nil, fmt.Errorf("gateway: config needs a source factory")
	}
	if cfg.Round == 0 {
		cfg.Round = srv.Config().Round
	}
	if cfg.Round <= 0 {
		return nil, fmt.Errorf("gateway: round %v must be positive", cfg.Round)
	}
	if cfg.MailboxDepth == 0 {
		cfg.MailboxDepth = 64
	}
	if cfg.MailboxDepth < 1 {
		return nil, fmt.Errorf("gateway: mailbox depth %d must be positive", cfg.MailboxDepth)
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 5 * time.Second
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 1024
	}
	if cfg.CheckpointEvery < 1 {
		return nil, fmt.Errorf("gateway: checkpoint threshold %d must be positive", cfg.CheckpointEvery)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	trace := cfg.TraceRing
	if trace == nil {
		trace = obs.NewRing(TraceSpans)
	}
	g := &Gateway{
		cfg:     cfg,
		srv:     srv,
		round:   cfg.Round,
		cmds:    make(chan command, cfg.MailboxDepth),
		closed:  make(chan struct{}),
		reg:     reg,
		trace:   trace,
		m:       newGwMetrics(reg),
		commit:  make(chan struct{}, 1),
		commitd: make(chan struct{}, 1),
	}
	g.halting, g.haltNow = context.WithCancel(context.Background())
	// Wire the server and store into the shared registry and ring. The
	// gateway owns the server from here on, so installing the observer now
	// is safe; registration is idempotent, so adopting a registry another
	// server already populated reuses its cells.
	srv.SetObserver(cm.NewObserver(reg))
	srv.SetTraceRing(trace)
	if st := cfg.Store; st != nil {
		st.Observe(reg)
		st.SetTraceRing(trace)
		srv.SetEventSink(func(ev cm.Event) { // moves go behind, for the committer; errors stick in st
			if ev.Kind != cm.EventBlocksMigrated {
				_, _ = st.Append(ev)
			} else {
				_, _ = st.AppendBehind(ev)
			}
		})
		if err := st.Sync(); err != nil { // what New publishes is durable too
			return nil, err
		}
	}
	// Fail fast if the strategy cannot produce concurrent locators.
	sn, err := srv.BuildSnapshot(cfg.Factory)
	if err != nil {
		return nil, err
	}
	g.snap.Store(sn)
	// Wire the streaming data plane: delivery sink, event-sink tee, and the
	// initial wire-format locator snapshot (fails fast for the same reason).
	dp, err := newDataPlane(g, srv)
	if err != nil {
		return nil, err
	}
	g.dp = dp
	g.bin, err = binproto.NewServer(binproto.ServerConfig{
		Snapshot: g.Snapshot, Draining: g.Draining, Registry: reg, Logf: cfg.Logf})
	if err != nil {
		return nil, err
	}
	g.capture(false) // the status, and the drain clock
	g.release()
	g.routes()
	go g.run()
	return g, nil
}

func (g *Gateway) logf(format string, args ...any) {
	if g.cfg.Logf != nil {
		g.cfg.Logf(format, args...)
	}
}

// run is the owner goroutine: the only code that touches g.srv. It starts
// each round when nextRound says to and executes mailbox commands between
// rounds; the decision is taken again after a command, so a stream admitted
// mid-drain is paced from the round before it; and after each of the
// committer's group commits, it publishes what that made durable.
func (g *Gateway) run() {
	defer close(g.closed)
	// Unblock every streaming handler on exit: nobody else will ever close
	// their chunk channels once the owner loop is gone.
	defer g.dp.closeAll(dataplane.CloseStopped)
	if g.cfg.Store != nil {
		committed := make(chan struct{})
		go g.commitLoop(committed)
		defer func() { <-committed }()
	}
	atOnce := make(chan time.Time)
	close(atOnce)
	timer := time.NewTimer(g.round)
	defer timer.Stop()
	start := time.Now() // the last round's start, as scheduled
	began, advanced := start, false
	for {
		next, background := g.nextRound(start, advanced)
		due := (<-chan time.Time)(atOnce)
		if !background {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(time.Until(next))
			due = timer.C
		}
		select {
		case <-g.halting.Done():
			return
		case <-due:
			now := time.Now()
			g.m.roundInterval.ObserveDuration(now.Sub(began))
			g.m.rounds[background].Inc()
			// A background round, or a paced one a whole Round late, restarts
			// the schedule from now; any other late round keeps it, so wake-up
			// jitter never accumulates into drift.
			if late := now.Sub(next); background || late > g.round {
				if !background {
					g.m.roundOverruns.Inc()
				}
				next = now
			}
			start, began, advanced = next, now, g.tick(now)
		case c := <-g.cmds:
			g.execute(c)
		case <-g.commitd:
			g.release()
		}
	}
}

// nextRound is the owner loop's one scheduling decision: when the round
// after the one that started at start begins, and whether that is at once
// (ARCHITECTURE.md, "The round driver"). advanced says the round just
// finished migrated or rebuilt something; without it a drain waiting on a
// repair would spin. Whether a drain is pending is the server's to say.
func (g *Gateway) nextRound(start time.Time, advanced bool) (at time.Time, background bool) {
	switch {
	case g.srv.ActiveStreams() > 0 || g.srv.Ingesting():
		return start.Add(g.round), false // paced: one block per session per Round
	case advanced && (g.srv.Reorganizing() || g.srv.RebuildRemaining() > 0):
		return start, true // background: the slack is the whole round
	default:
		return start.Add(g.round), false // idle or stalled
	}
}

// tick runs the round that began at start, queues its views for publication
// once durable, and reports whether the round migrated or rebuilt anything.
func (g *Gateway) tick(start time.Time) (advanced bool) {
	defer func() { g.m.tickTime.ObserveDuration(time.Since(start)) }()
	before := g.srv.Metrics()
	if err := g.srv.Tick(); err != nil {
		g.m.tickErrors.Inc()
		g.logf("gateway: tick: %v", err)
	}
	after := g.srv.Metrics()
	// The snapshot is rebuilt while a migration drains and when one ends, and
	// while the published one is degraded: the round that ends a rebuild
	// leaves the server healthy and that snapshot saying otherwise.
	finished := g.finish(after)
	g.capture(finished || g.srv.Reorganizing() || g.srv.Degraded() || g.snap.Load().Degraded())
	g.checkpoint()
	g.release()
	g.m.poolBuffers.SetInt(int(bufpool.InUse()))
	g.m.poolBytes.SetInt(int(bufpool.InUseBytes()))
	deltas, bytes := g.dp.feed.Retained()
	g.m.feedDeltas.SetInt(deltas)
	g.m.feedBytes.SetInt(bytes)
	return after.BlocksMigrated+after.RebuildIOs > before.BlocksMigrated+before.RebuildIOs
}

// finish clears a drained migration — a scale-up at once, a scale-down once
// its rebuild backlog is empty too (FinishReorganization refuses until then)
// — and reports whether it did, with the operation's log line.
func (g *Gateway) finish(after cm.Metrics) bool {
	epoch := g.srv.PlacementEpoch()
	if g.srv.Reorganizing() || g.srv.FinishReorganization() != nil || g.srv.PlacementEpoch() == epoch {
		return false // nothing installed, still draining, or refused
	}
	d := g.drain
	took := time.Since(d.began)
	g.m.drainTime.ObserveDuration(took)
	moves := after.BlocksMigrated - d.from.BlocksMigrated
	g.logf("gateway: reorganization complete, %d disks: %d moves in %d rounds, %d fsyncs, %.3fs, %.0f blocks/s",
		g.srv.N(), moves, after.Rounds-d.from.Rounds, g.fsyncs()-d.fsyncs, took.Seconds(), float64(moves)/took.Seconds())
	return true
}

// startClock starts the drain clock at the current placement epoch.
func (g *Gateway) startClock() {
	d := &g.drain
	d.epoch, d.fsyncs, d.began, d.from = g.srv.PlacementEpoch(), g.fsyncs(), time.Now(), g.srv.Metrics()
}

// fsyncs is the journal's fsync count so far; 0 without a store.
func (g *Gateway) fsyncs() uint64 {
	if st := g.cfg.Store; st != nil {
		return st.Status().Fsyncs
	}
	return 0
}

// checkpoint cuts a checkpoint once enough events accumulate past the last
// one; a server mid-reorganization or degraded refuses (cm.ErrBusy), and the
// attempt repeats next round.
func (g *Gateway) checkpoint() {
	st := g.cfg.Store
	if st == nil || st.EventsSinceCheckpoint() < uint64(g.cfg.CheckpointEvery) {
		return
	}
	lsn, err := st.Checkpoint(g.srv)
	switch {
	case err == nil:
		g.logf("gateway: checkpoint at LSN %d", lsn)
	case errors.Is(err, cm.ErrBusy):
		// Reorganizing: retry once the drain completes.
	default:
		g.logf("gateway: checkpoint: %v", err)
	}
}

// execute runs one mailbox command in the owner goroutine and makes the
// journal durable before the reply is sent, so an acknowledgement never
// outruns the journal and the views the command changed are published by
// then. A failed sync is sticky in the store and surfaces via healthz.
//
// A command abandoned by its submitter (context already expired while it
// sat in the queue) is answered with the context error and never run: the
// submitter can only have reported failure, so running the command would
// detach its side effects from any owner. The check is best-effort — a
// deadline landing between it and the reply still wins — but it closes the
// seconds-wide queue-wait window that matters under an open stampede.
func (g *Gateway) execute(c command) {
	if c.ctx != nil && c.ctx.Err() != nil {
		c.reply <- cmdResult{err: c.ctx.Err()}
		return
	}
	v, err := c.fn(g.srv)
	g.capture(err == nil && c.mutates)
	if st := g.cfg.Store; st != nil {
		if serr := st.Sync(); serr != nil {
			g.logf("gateway: journal sync after a command: %v", serr)
		}
	}
	g.release()
	c.reply <- cmdResult{v: v, err: err}
}

// statusNow is the server's status as of now.
func (g *Gateway) statusNow() *Status {
	m := g.srv.Metrics()
	return &Status{
		Rounds:             m.Rounds,
		Disks:              g.srv.N(),
		Objects:            g.srv.Objects(),
		ActiveStreams:      g.srv.ActiveStreams(),
		Reorganizing:       g.srv.Reorganizing(),
		MigrationRemaining: g.srv.MigrationRemaining(),
		Degraded:           g.srv.Degraded(),
		RebuildRemaining:   g.srv.RebuildRemaining(),
		Server:             m,
	}
}

// Snapshot returns the current read-path locator snapshot.
func (g *Gateway) Snapshot() *cm.LocatorSnapshot { return g.snap.Load() }

// Status returns the current published status, with live gateway counters
// and the draining flag filled in.
func (g *Gateway) Status() Status {
	st := *g.status.Load()
	st.Draining = g.draining.Load()
	if a, _ := g.binAddr.Load().(string); a != "" {
		st.BinAddr = a
	}
	if g.cfg.Store != nil {
		js := g.cfg.Store.Status()
		st.Journal = &js
	}
	st.Gateway = Counters{
		Reads:            int64(g.m.reads.Value()),
		ReadErrors:       int64(g.m.readErrors.Value()),
		Overloads:        int64(g.m.overloads.Value()),
		SessionsOpened:   int64(g.m.sessionsOpened.Value()),
		SessionsRejected: int64(g.m.sessionsRejected.Value()),
		TickErrors:       int64(g.m.tickErrors.Value()),
		StreamChunks:     int64(g.m.streamChunks.Value()),
		StreamBytes:      int64(g.m.streamBytes.Value()),
		StreamFlushes:    int64(g.m.streamFlushes.Value()),
		StreamMisses:     int64(g.m.streamMisses.Value()),
		StreamEvictions:  int64(g.m.streamEvictions.Value()),
		DeltasPublished:  int64(g.m.deltasPublished.Value()),
	}
	return st
}

// Registry returns the metrics registry the gateway publishes into — the
// same cells served at GET /v1/metrics. Useful for exposing them on a
// separate debug listener.
func (g *Gateway) Registry() *obs.Registry { return g.reg }

// exec is how an HTTP handler runs a command: submit under RequestTimeout.
// This is the gateway's one request deadline — the mailbox is the only place
// a request waits — and a command that outlives it answers 504.
func (g *Gateway) exec(ctx context.Context, mutates bool, fn func(*cm.Server) (any, error)) (any, error) {
	return g.execDiscard(ctx, mutates, fn, nil)
}

// execDiscard is exec with submit's discard hook.
func (g *Gateway) execDiscard(ctx context.Context, mutates bool, fn func(*cm.Server) (any, error), discard func(v any)) (any, error) {
	ctx, cancel := context.WithTimeout(ctx, g.cfg.RequestTimeout)
	defer cancel()
	return g.submit(ctx, mutates, fn, discard)
}

// submit hands a command to the owner goroutine and waits for its reply,
// the context, or gateway shutdown. A full mailbox returns ErrOverloaded
// immediately — backpressure at the edge instead of an unbounded queue.
//
// discard is for commands with side effects that must not outlive their
// submitter. A reply that raced the deadline is preferred over the deadline
// (the command ran; report its true outcome rather than a timeout the side
// effects don't match). If the command is truly abandoned — deadline fired
// before fn finished — discard receives the eventual successful result so
// the handler's compensation (detach, stop) can run; nil means none.
func (g *Gateway) submit(ctx context.Context, mutates bool, fn func(*cm.Server) (any, error), discard func(v any)) (any, error) {
	c := command{ctx: ctx, fn: fn, mutates: mutates, reply: make(chan cmdResult, 1), discard: discard}
	select {
	case <-g.closed:
		return nil, ErrDraining
	default:
	}
	select {
	case g.cmds <- c:
	default:
		g.m.overloads.Inc()
		return nil, ErrOverloaded
	}
	select {
	case r := <-c.reply:
		return r.v, r.err
	case <-ctx.Done():
		select {
		case r := <-c.reply:
			return r.v, r.err
		default:
		}
		g.abandon(c)
		return nil, ctx.Err()
	case <-g.closed:
		select {
		case r := <-c.reply:
			return r.v, r.err
		default:
		}
		return nil, ErrDraining
	}
}

// abandon watches a command whose submitter gave up before the reply
// arrived. execute skips expired commands when it can, but a command
// already running when the deadline fires completes with side effects
// nobody owns — the watcher waits for the reply every queued command
// eventually gets and hands a successful result to the discard hook.
// On gateway shutdown queued commands are never answered and closeAll
// tears the sessions down anyway, so the watcher just exits.
func (g *Gateway) abandon(c command) {
	if c.discard == nil {
		return
	}
	go func() {
		select {
		case r := <-c.reply:
			if r.err == nil {
				c.discard(r.v)
			}
		case <-g.closed:
			select {
			case r := <-c.reply:
				if r.err == nil {
					c.discard(r.v)
				}
			default:
			}
		}
	}()
}

// Exec runs fn serialized with the round driver — the only sanctioned way
// to touch the underlying server from outside. It is treated as mutating:
// the read-path snapshot is republished after it succeeds. The caller's
// context is the only deadline.
func (g *Gateway) Exec(ctx context.Context, fn func(*cm.Server) (any, error)) (any, error) {
	return g.submit(ctx, true, fn, nil)
}

// Rounds returns the number of rounds ticked so far.
func (g *Gateway) Rounds() int { return g.status.Load().Rounds }

// Draining reports whether graceful shutdown has begun.
func (g *Gateway) Draining() bool { return g.draining.Load() }

// Shutdown drains the gateway gracefully: new sessions are refused
// immediately, rounds keep ticking until every active session has finished
// and any migration has drained (or ctx expires), then the round driver
// stops. It returns ctx.Err() if the deadline cut the drain short.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.draining.Store(true)
	defer g.halt()
	for {
		v, err := g.submit(ctx, false, func(s *cm.Server) (any, error) {
			return s.ActiveStreams() + s.MigrationRemaining(), nil
		}, nil)
		if err != nil {
			if err == ErrOverloaded {
				// Backlogged control plane: wait a round and re-ask.
				select {
				case <-time.After(g.round):
					continue
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			return err
		}
		if v.(int) == 0 {
			return nil
		}
		select {
		case <-time.After(g.round):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Close stops the round driver immediately without draining sessions.
func (g *Gateway) Close() {
	g.draining.Store(true)
	g.halt()
}

func (g *Gateway) halt() {
	g.haltNow()
	<-g.closed
	g.bin.Close()
}
