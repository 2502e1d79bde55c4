package cluster

import (
	"strconv"

	"scaddar/internal/obs"
)

// routerMetrics holds the router's registry cells. Per-shard counter
// children are resolved once when the shard handle is built (CounterVec.With
// takes a mutex), so the routed-read hot path touches atomics only.
type routerMetrics struct {
	reg *obs.Registry

	routed      *obs.CounterVec
	routedErrs  *obs.CounterVec
	fanoutErrs  *obs.CounterVec
	healthy     *obs.GaugeVec
	unavailable *obs.Counter

	// Shard connection pool. The obs vecs carry one label, so the idle/busy
	// split is two families rather than a state label.
	dials       *obs.CounterVec
	connRetries *obs.CounterVec
	connsIdle   *obs.GaugeVec
	connsBusy   *obs.GaugeVec

	shards  *obs.Gauge
	buckets *obs.Gauge
	version *obs.Gauge

	proxySeconds   *obs.Histogram
	migrations     *obs.Counter
	objectsMoved   *obs.Counter
	migrateSeconds *obs.Histogram

	pins        *obs.Gauge
	objectMoves *obs.Counter

	// The shards' views (view.go): where block reads were answered, and what
	// keeping the views current costs.
	readsLocal    *obs.CounterVec
	forwarded     [fwdReasons]*obs.Counter
	viewSeq       *obs.GaugeVec
	viewSyncs     *obs.CounterVec
	viewRefused   *obs.CounterVec
	viewApply     *obs.Histogram
	viewPageBytes *obs.Histogram
}

// newRouterMetrics registers the router's metric families in reg.
func newRouterMetrics(reg *obs.Registry) *routerMetrics {
	forwarded := reg.NewCounterVec("cluster_reads_forwarded_total",
		"Block reads sent to their shard because its view could not answer (label: why — no_view, lease, miss, behind).", "reason")
	m := &routerMetrics{
		reg: reg,
		routed: reg.NewCounterVec("cluster_routed_total",
			"Requests routed to each shard (label: shard ID).", "shard"),
		routedErrs: reg.NewCounterVec("cluster_routed_errors_total",
			"Routed requests that failed at the transport (label: shard ID).", "shard"),
		fanoutErrs: reg.NewCounterVec("cluster_fanout_errors_total",
			"Fan-out sub-requests that errored or timed out (label: shard ID).", "shard"),
		healthy: reg.NewGaugeVec("cluster_shard_healthy",
			"1 when the shard's last health probe (or routed request) succeeded.", "shard"),
		unavailable: reg.NewCounter("cluster_unavailable_total",
			"Requests answered 503 because the owning shard was down or draining."),
		dials: reg.NewCounterVec("cluster_shard_dials_total",
			"Connections the router dialed to each shard (label: shard ID).", "shard"),
		connRetries: reg.NewCounterVec("cluster_shard_conn_retries_total",
			"GETs replayed on a fresh connection after a pooled one turned out dead (label: shard ID).", "shard"),
		connsIdle: reg.NewGaugeVec("cluster_shard_conns_idle",
			"Pooled connections to each shard waiting for a request, as of the last scrape.", "shard"),
		connsBusy: reg.NewGaugeVec("cluster_shard_conns_busy",
			"Connections to each shard carrying a request, as of the last scrape.", "shard"),
		shards:  reg.NewGauge("cluster_shards", "Shards in the topology, including drained tails."),
		buckets: reg.NewGauge("cluster_buckets", "Routing slots that currently own keys."),
		version: reg.NewGauge("cluster_manifest_version", "Topology version from the cluster manifest."),
		proxySeconds: reg.NewHistogram("cluster_proxy_seconds",
			"Latency of routed shard requests as seen by the router.", obs.LatencyBuckets()),
		migrations: reg.NewCounter("cluster_migrations_total",
			"Completed topology operations (shard add/drain)."),
		objectsMoved: reg.NewCounter("cluster_objects_moved_total",
			"Objects migrated between shards by topology operations."),
		migrateSeconds: reg.NewHistogram("cluster_migrate_seconds",
			"Wall-clock duration of topology-operation key migrations.",
			obs.ExpBuckets(0.001, 4, 12)),
		pins: reg.NewGauge("cluster_object_pins",
			"Objects pinned to an explicit shard, overriding jump-hash placement."),
		objectMoves: reg.NewCounter("cluster_object_moves_total",
			"Completed cross-shard object moves via the move API."),
		readsLocal: reg.NewCounterVec("cluster_reads_local_total",
			"Block reads answered from the router's view of the shard, without the hop (label: shard ID).", "shard"),
		viewSeq: reg.NewGaugeVec("cluster_view_seq",
			"Feed sequence the router's view of each shard reflects.", "shard"),
		viewSyncs: reg.NewCounterVec("cluster_view_resyncs_total",
			"Full locator snapshots a shard's follower installed, the first included (label: shard ID).", "shard"),
		viewRefused: reg.NewCounterVec("cluster_view_refused_total",
			"Self-checks a shard's view failed: its answers differed from the shard's own, or the hop that asks failed (label: shard ID).", "shard"),
		viewApply: reg.NewHistogram("cluster_view_apply_seconds",
			"Time from a delta page's last byte to the view reflecting it.", obs.LatencyBuckets()),
		viewPageBytes: reg.NewHistogram("cluster_view_page_bytes",
			"Body size of the delta pages the followers applied: the price of the JSON feed.", obs.SizeBuckets()),
	}
	for i, label := range fwdReasonLabels {
		m.forwarded[i] = forwarded.With(label)
	}
	return m
}

// shardLabel renders a shard ID as its metric label.
func shardLabel(id int) string { return strconv.Itoa(id) }
