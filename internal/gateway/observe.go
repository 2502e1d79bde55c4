package gateway

import (
	"time"

	"scaddar/internal/obs"
)

// gwMetrics holds the gateway's registry cells. Counter/histogram updates
// are lock-free and allocation-free, so the request handlers use them
// directly; the phase histogram children are resolved once here, never on
// the hot path (HistogramVec.With takes a mutex).
type gwMetrics struct {
	reads            *obs.Counter
	readErrors       *obs.Counter
	overloads        *obs.Counter
	sessionsOpened   *obs.Counter
	sessionsRejected *obs.Counter
	tickErrors       *obs.Counter

	// Streaming data plane (stream.go): chunk deliveries into session
	// buffers, deadline misses (hiccups), backpressure evictions, bytes
	// written to streaming responses, and the locator feed's traffic.
	streamsAttached *obs.Counter
	streamChunks    *obs.Counter
	streamBytes     *obs.Counter
	streamFlushes   *obs.Counter
	streamMisses    *obs.Counter
	streamEvictions *obs.Counter
	deltasPublished *obs.Counter
	snapshotFetches *obs.Counter
	deltaPolls      *obs.Counter

	tickTime *obs.Histogram
	// The round driver timing itself (gateway.go, run): start-to-start
	// intervals, rounds by pace (indexed by nextRound's background), paced
	// rounds that started more than a Round late, and accept-to-finish time
	// of each scaling operation.
	roundInterval *obs.Histogram
	rounds        map[bool]*obs.Counter
	roundOverruns *obs.Counter
	drainTime     *obs.Histogram
	// The publication queue (publish.go).
	publishQueued *obs.Gauge
	publishDelay  *obs.Histogram

	// The payload pool's gauges as of the end of the last round: what the
	// chunks in flight through this process's sessions pin (internal/bufpool).
	// And the locator feed's: what its ring retains.
	poolBuffers *obs.Gauge
	poolBytes   *obs.Gauge
	feedDeltas  *obs.Gauge
	feedBytes   *obs.Gauge

	readTotal     *obs.Histogram
	readAdmission *obs.Histogram
	readLocate    *obs.Histogram
	readService   *obs.Histogram
}

// newGwMetrics registers the gateway's metric families in reg.
func newGwMetrics(reg *obs.Registry) *gwMetrics {
	phases := reg.NewHistogramVec("gateway_read_phase_seconds",
		"Read-path latency split by phase: admission (parse+validate), locate (snapshot lookup), service (response delivery).",
		"phase", obs.LatencyBuckets())
	rounds := reg.NewCounterVec("gateway_rounds_total",
		"Rounds started, by pace: paced (on the Round clock: something is played or recorded, or nothing is pending) or background (at once: a migration or rebuild on an array nobody plays from).", "pace")
	return &gwMetrics{
		reads:            reg.NewCounter("gateway_reads_total", "Block-location lookups served from the snapshot."),
		readErrors:       reg.NewCounter("gateway_read_errors_total", "Lookups that failed (bad object or index)."),
		overloads:        reg.NewCounter("gateway_overloads_total", "Requests rejected because the command mailbox was full."),
		sessionsOpened:   reg.NewCounter("gateway_sessions_opened_total", "Successful session admissions."),
		sessionsRejected: reg.NewCounter("gateway_sessions_rejected_total", "Session admissions refused (admission control, overload, draining)."),
		tickErrors:       reg.NewCounter("gateway_tick_errors_total", "Rounds whose Tick returned an error."),

		streamsAttached: reg.NewCounter("gateway_streams_attached_total", "Streaming consumers attached to sessions."),
		streamChunks:    reg.NewCounter("gateway_stream_chunks_total", "Chunks delivered into session buffers by the round driver."),
		streamBytes:     reg.NewCounter("gateway_stream_bytes_total", "Bytes written to streaming response bodies: chunk frames and end frames, headers included."),
		streamFlushes:   reg.NewCounter("gateway_stream_flushes_total", "Flushes issued by streaming responses (one per gather: a coalesced drain covers many chunks per flush)."),
		streamMisses:    reg.NewCounter("gateway_stream_misses_total", "Round-deadline misses (chunks dropped because a session buffer was full)."),
		streamEvictions: reg.NewCounter("gateway_stream_evictions_total", "Sessions evicted after too many consecutive deadline misses."),
		deltasPublished: reg.NewCounter("gateway_locator_deltas_total", "Deltas published to the locator feed."),
		snapshotFetches: reg.NewCounter("gateway_locator_snapshots_total", "Full locator snapshot fetches served."),
		deltaPolls:      reg.NewCounter("gateway_locator_polls_total", "Locator delta long-poll requests served."),

		tickTime: reg.NewHistogram("gateway_tick_seconds",
			"Wall-clock time the owner goroutine spent executing one round.", obs.LatencyBuckets()),
		roundInterval: reg.NewHistogram("gateway_round_interval_seconds",
			"Wall-clock time from one round's start to the next round's.", obs.LatencyBuckets()),
		rounds:        map[bool]*obs.Counter{false: rounds.With("paced"), true: rounds.With("background")},
		roundOverruns: reg.NewCounter("gateway_round_overruns_total", "Paced rounds that started more than one Round after they were due."),
		drainTime: reg.NewHistogram("gateway_reorg_drain_seconds",
			"Wall-clock time from a scaling operation's accept to the round that finished it.", obs.LatencyBuckets()),
		publishQueued: reg.NewGauge("gateway_publish_queued", "Rounds' and commands' views waiting for the journal to be durable up to them."),
		publishDelay:  reg.NewHistogram("gateway_publish_delay_seconds", "Wall-clock time from capturing a round's or a command's views to publishing them.", obs.LatencyBuckets()),

		poolBuffers: reg.NewGauge("bufpool_in_use_buffers", "Pooled payload buffers referenced at the end of the last round."),
		poolBytes:   reg.NewGauge("bufpool_in_use_bytes", "Backing capacity of the pooled payload buffers referenced at the end of the last round."),
		feedDeltas:  reg.NewGauge("gateway_locator_feed_retained_deltas", "Deltas the locator feed's ring retained at the end of the last round: the newest snapshot delta and what followed it, up to the ring's capacity."),
		feedBytes:   reg.NewGauge("gateway_locator_feed_retained_bytes", "Estimated bytes those deltas reference: 16 a move, 24 a pending block, 32 a catalogue row."),

		readTotal: reg.NewHistogram("gateway_read_seconds",
			"End-to-end read-path latency (all phases).", obs.LatencyBuckets()),
		readAdmission: phases.With("admission"),
		readLocate:    phases.With("locate"),
		readService:   phases.With("service"),
	}
}

// observeRead records one read's phase split. It is the only instrumentation
// on the hot path and performs no allocation — guarded by
// TestReadInstrumentationZeroAlloc.
func (m *gwMetrics) observeRead(admission, locate, service time.Duration) {
	m.readAdmission.ObserveDuration(admission)
	m.readLocate.ObserveDuration(locate)
	m.readService.ObserveDuration(service)
	m.readTotal.Observe(admission.Seconds() + locate.Seconds() + service.Seconds())
}
