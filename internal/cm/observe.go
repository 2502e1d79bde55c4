package cm

// This file bridges the server into the internal/obs observability layer:
// an Observer mirrors cm.Metrics and per-disk state into a metrics registry
// at the end of every round, and an optional trace ring records the same
// event stream the durable store journals, so a recovered server retraces
// the ring of the run it replays (store-side replay appends the identical
// spans; see internal/store).
//
// All hooks run on the goroutine that owns the server — the observer needs
// no locking of its own beyond the registry's lock-free cells.

import (
	"math"
	"strconv"

	"scaddar/internal/obs"
	"scaddar/internal/stats"
)

// Observer publishes a Server's state into an obs.Registry: monotonic
// counters mirroring Metrics, per-disk load and queue-depth gauges, a live
// unfairness estimate next to the analytic Section 4.3 bound, and per-round
// migration/rebuild histograms. Create it with NewObserver and install it
// with Server.SetObserver; the server then refreshes every cell at the end
// of each Tick on its owner goroutine. Readers (an HTTP exposition handler,
// a dashboard) may scrape the registry concurrently — the cells are atomic.
type Observer struct {
	// Counters mirroring the monotonic cm.Metrics fields.
	rounds          *obs.Counter
	blocksServed    *obs.Counter
	hiccups         *obs.Counter
	streamsDone     *obs.Counter
	streamsRejected *obs.Counter
	blocksMigrated  *obs.Counter
	blocksIngested  *obs.Counter
	cacheHits       *obs.Counter
	diskFailures    *obs.Counter
	diskRepairs     *obs.Counter
	degradedReads   *obs.Counter
	unrecoverable   *obs.Counter
	transientErrors *obs.Counter
	failoverReads   *obs.Counter
	blocksRebuilt   *obs.Counter
	rebuildIOs      *obs.Counter
	events          *obs.CounterVec

	// Gauges of current state.
	disks            *obs.Gauge
	activeStreams    *obs.Gauge
	objects          *obs.Gauge
	totalBlocks      *obs.Gauge
	migrationPending *obs.Gauge
	rebuildPending   *obs.Gauge
	loadCoV          *obs.Gauge
	unfairness       *obs.Gauge
	unfairnessBound  *obs.Gauge
	diskLoad         *obs.GaugeVec
	diskQueue        *obs.GaugeVec

	// Per-round distributions: how much spare bandwidth each round spent on
	// reorganization moves vs. rebuild I/Os.
	roundMoves      *obs.Histogram
	roundRebuildIOs *obs.Histogram
	// What a scaling operation cost before its first move, and what it planned.
	planSeconds *obs.Histogram
	planMoves   *obs.Counter

	// prevDisks tracks the last published array width so per-disk gauge
	// children are pruned when a scale-down shrinks the array.
	prevDisks int
}

// NewObserver registers the server's metric families in reg and returns the
// observer to install with Server.SetObserver. Registering twice against
// the same registry reuses the same cells (registration is idempotent), so
// a recovered server can adopt the registry of the one it replaces.
func NewObserver(reg *obs.Registry) *Observer {
	return &Observer{
		rounds:          reg.NewCounter("cm_rounds_total", "Scheduling rounds executed."),
		blocksServed:    reg.NewCounter("cm_blocks_served_total", "Blocks delivered to streams."),
		hiccups:         reg.NewCounter("cm_hiccups_total", "Stream-rounds that missed their deadline."),
		streamsDone:     reg.NewCounter("cm_streams_completed_total", "Streams that played to the end."),
		streamsRejected: reg.NewCounter("cm_streams_rejected_total", "Admission-control rejections."),
		blocksMigrated:  reg.NewCounter("cm_blocks_migrated_total", "Reorganization moves executed."),
		blocksIngested:  reg.NewCounter("cm_blocks_ingested_total", "Blocks written by recording sessions."),
		cacheHits:       reg.NewCounter("cm_cache_hits_total", "Stream reads served from the block buffer."),
		diskFailures:    reg.NewCounter("cm_disk_failures_total", "Whole-disk failures injected or invoked."),
		diskRepairs:     reg.NewCounter("cm_disk_repairs_total", "Replacement-disk arrivals (rebuild starts)."),
		degradedReads:   reg.NewCounter("cm_degraded_reads_total", "Reads served via mirror failover or parity reconstruction."),
		unrecoverable:   reg.NewCounter("cm_unrecoverable_reads_total", "Reads of blocks no redundancy could serve."),
		transientErrors: reg.NewCounter("cm_transient_read_errors_total", "Injected per-read transient faults."),
		failoverReads:   reg.NewCounter("cm_failover_reads_total", "Source-disk reads consumed by degraded serving."),
		blocksRebuilt:   reg.NewCounter("cm_blocks_rebuilt_total", "Primary copies re-materialized by the rebuild executor."),
		rebuildIOs:      reg.NewCounter("cm_rebuild_ios_total", "Disk I/Os (reads+writes) spent on rebuild."),
		events:          reg.NewCounterVec("cm_events_total", "Durable control-plane events emitted, by kind.", "kind"),

		disks:            reg.NewGauge("cm_disks", "Disks in the array."),
		activeStreams:    reg.NewGauge("cm_active_streams", "Streams currently playing."),
		objects:          reg.NewGauge("cm_objects", "Objects loaded in the catalog."),
		totalBlocks:      reg.NewGauge("cm_total_blocks", "Blocks stored across the array."),
		migrationPending: reg.NewGauge("cm_migration_pending", "Reorganization moves still pending."),
		rebuildPending:   reg.NewGauge("cm_rebuild_pending", "Rebuild items still pending."),
		loadCoV:          reg.NewGauge("cm_load_cov", "Coefficient of variation of per-disk block load (paper Section 5)."),
		unfairness:       reg.NewGauge("cm_unfairness", "Live unfairness of per-disk load: max/min - 1 (paper Section 4.3)."),
		unfairnessBound:  reg.NewGauge("cm_unfairness_bound", "Analytic guaranteed unfairness bound f(R_k,N_k) from the randomness budget; NaN without budget tracking."),
		diskLoad:         reg.NewGaugeVec("cm_disk_load_blocks", "Blocks stored per logical disk.", "disk"),
		diskQueue:        reg.NewGaugeVec("cm_disk_queue_depth", "Stream/ingest block requests served by the disk in the last round.", "disk"),

		roundMoves:      reg.NewHistogram("cm_round_moves", "Reorganization moves executed per round while a migration is active.", obs.SizeBuckets()),
		roundRebuildIOs: reg.NewHistogram("cm_round_rebuild_ios", "Rebuild I/Os executed per round while a rebuild is active.", obs.SizeBuckets()),
		planSeconds:     reg.NewHistogram("cm_plan_seconds", "Wall-clock time from the start of planning a scaling operation or complete redistribution to its migration being installed.", obs.LatencyBuckets()),
		planMoves:       reg.NewCounter("cm_plan_moves_total", "Moves planned by scaling operations and complete redistributions."),
	}
}

// SetObserver installs (or, with nil, removes) the observer. The server
// refreshes it at the end of every Tick; between ticks the registry serves
// the previous round's values.
func (s *Server) SetObserver(o *Observer) {
	s.obsv = o
	if o != nil {
		o.observeRound(s, nil, 0, 0)
	}
}

// SetTraceRing installs (or, with nil, removes) the trace ring. Every
// emitted event appends one span tagged with the current round; replaying
// the journal through internal/store appends the same spans (with Round set
// to -1), so live ring contents and a recovery's retrace agree on the event
// sequence.
func (s *Server) SetTraceRing(r *obs.Ring) { s.trace = r }

// EventSpan converts a durable event into its trace-ring span. The mapping
// is the single source of truth shared by the live emit path and the
// store's replay path — identical events always yield identical spans
// (before Seq/Round assignment), which is what makes a replayed recovery
// retrace the ring of the run it replays.
func EventSpan(ev Event) obs.Span {
	sp := obs.Span{Kind: ev.Kind.String(), Round: -1, Object: -1, Disk: -1}
	switch ev.Kind {
	case EventObjectAdded:
		sp.Object = int64(ev.Object.ID)
		sp.Count = int64(ev.Object.Blocks)
	case EventObjectRemoved:
		sp.Object = int64(ev.ObjectID)
	case EventIngestCommitted:
		sp.Object = int64(ev.Object.ID)
		sp.Count = int64(ev.Object.Blocks)
	case EventScaleUpStarted:
		sp.Count = int64(ev.Count)
		if ev.Profile != nil {
			sp.Aux = 1 // non-baseline generation attached
		}
	case EventScaleDownStarted:
		sp.Count = int64(len(ev.Disks))
		if len(ev.Disks) > 0 {
			sp.Disk = int64(ev.Disks[0])
		}
	case EventBlocksMigrated:
		sp.Count = int64(len(ev.Moves))
	case EventDiskFailed:
		sp.Disk = int64(ev.Disk)
		sp.Aux = int64(len(ev.Lost))
	case EventDiskRepaired:
		sp.Disk = int64(ev.Disk)
	case EventBlocksRebuilt:
		sp.Count = int64(len(ev.Rebuilt))
	}
	return sp
}

// observeRound refreshes every registry cell from the server's current
// state. used is the per-disk served-request count of the round just
// executed (nil outside Tick); moved and rebuildIOs are that round's
// migration and rebuild expenditure.
func (o *Observer) observeRound(s *Server, used []int, moved, rebuildIOs int) {
	m := &s.metrics
	o.rounds.Set(uint64(m.Rounds))
	o.blocksServed.Set(uint64(m.BlocksServed))
	o.hiccups.Set(uint64(m.Hiccups))
	o.streamsDone.Set(uint64(m.StreamsCompleted))
	o.streamsRejected.Set(uint64(m.StreamsRejected))
	o.blocksMigrated.Set(uint64(m.BlocksMigrated))
	o.blocksIngested.Set(uint64(m.BlocksIngested))
	o.cacheHits.Set(uint64(m.CacheHits))
	o.diskFailures.Set(uint64(m.DiskFailures))
	o.diskRepairs.Set(uint64(m.DiskRepairs))
	o.degradedReads.Set(uint64(m.DegradedReads))
	o.unrecoverable.Set(uint64(m.UnrecoverableReads))
	o.transientErrors.Set(uint64(m.TransientReadErrors))
	o.failoverReads.Set(uint64(m.FailoverReads))
	o.blocksRebuilt.Set(uint64(m.BlocksRebuilt))
	o.rebuildIOs.Set(uint64(m.RebuildIOs))

	o.disks.SetInt(s.N())
	o.activeStreams.SetInt(s.ActiveStreams())
	o.objects.SetInt(len(s.objects))
	o.totalBlocks.SetInt(s.array.TotalBlocks())
	o.migrationPending.SetInt(s.MigrationRemaining())
	o.rebuildPending.SetInt(s.RebuildRemaining())

	loads := s.array.Loads()
	o.loadCoV.Set(stats.CoVInts(loads))
	if unf, err := stats.UnfairnessInts(loads); err == nil {
		o.unfairness.Set(unf)
	}
	if s.budget != nil {
		o.unfairnessBound.Set(s.budget.GuaranteedUnfairness())
	} else {
		o.unfairnessBound.Set(math.NaN())
	}

	for i, l := range loads {
		key := strconv.Itoa(i)
		o.diskLoad.With(key).SetInt(l)
		if used != nil && i < len(used) {
			o.diskQueue.With(key).SetInt(used[i])
		}
	}
	// Prune gauges for disks a scale-down detached.
	for i := len(loads); i < o.prevDisks; i++ {
		key := strconv.Itoa(i)
		o.diskLoad.Delete(key)
		o.diskQueue.Delete(key)
	}
	o.prevDisks = len(loads)

	if moved > 0 || s.Reorganizing() {
		o.roundMoves.Observe(float64(moved))
	}
	if rebuildIOs > 0 || s.RebuildRemaining() > 0 {
		o.roundRebuildIOs.Observe(float64(rebuildIOs))
	}
}

// observeEvent counts an emitted event by kind. Runs on the emit path
// (control plane), so the vec's mutex is acceptable.
func (o *Observer) observeEvent(ev Event) {
	o.events.With(ev.Kind.String()).Inc()
}
