package main

import (
	"encoding/json"
	"io"
)

// metricDef declares one metric of the ledger, as BENCHMARK.json carries it.
// README.md defines each metric and says which end-to-end metric, on which
// workload, a per-layer metric is expected to move.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
}

// workloadDef names a workload and says why it exists.
type workloadDef struct {
	Name string
	Why  string
	run  func(spec, *recorder, *result, func()) error
}

var workloads = []workloadDef{
	{"lookup_http", "GET block lookups over loopback HTTP: net/http, JSON and the gateway handler do the work and locate under 2 %, so a handler change shows here and a REMAP-chain change must not", runLookupHTTP},
	{"lookup_bin_batch", "binproto LocateBatch of 1,024 addresses: framing is amortised away, so the snapshot and the compiled chain at j=12 do most of the work; flat under handler changes", runLookupBinBatch},
	{"lookup_routed", "the same GETs through the cluster router over 3 shard gateways: the proxy hop dominates, so routed-vs-direct is read here against lookup_http", runLookupRouted},
	{"stream_scaleup", "64 paced sessions drained from segment stores over chunked HTTP with a scale-up at 20 % of the window: the only workload where bytes move and migration writes compete with playback reads", runStreamScaleup},
	{"reorg_durable", "six awaited scaling operations under a journal and a follower, then crash recovery of the copied directory: the write side of the control plane, where lookups barely register", runReorgDurable},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// endToEnd is what a user of the system sees, on every workload: the
// figures every workload has and this sandbox holds steady enough to gate
// on. The operation ops_per_s counts is the workload's own, and the rate is
// a whole-window total: verified lookups per second on the three closed-loop
// lookup workloads; migrated blocks per second of drain on reorg_durable
// (Σ moved ÷ Σ drain time over the script); on stream_scaleup, where the
// pacer fixes the delivered rate, verified 64 KiB chunks per second of the
// process's CPU time — the rate one core sustains, which a chunk that costs
// twice as much halves long before a deadline is missed. The user-visible
// figures only some workloads have, or that calibration showed too noisy
// here to carry a bound, are the e2e.* entries of perLayer; README.md lists
// each with its measured spread.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "mem_held_mib", Unit: "MiB", Better: "lower", Bound: 0.25},
}

// perLayer is measured by a traced run: workload-specific end-to-end figures
// that not every workload has (e2e.*), in-vivo counts, probe timings, the
// benchmark's own baselines, and the budget summary.
var perLayer = []metricDef{
	{Name: "e2e.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "e2e.max_rss_mib", Unit: "MiB", Better: "lower"},
	{Name: "e2e.lookup_p50_us", Unit: "us", Better: "lower"},
	{Name: "e2e.lookup_p99_us", Unit: "us", Better: "lower"},
	{Name: "e2e.stream_mib_per_s", Unit: "MiB/s", Better: "higher"},
	{Name: "e2e.chunk_gap_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "e2e.hiccup_frac", Unit: "frac", Better: "lower"},
	{Name: "e2e.reorg_drain_ms", Unit: "ms", Better: "lower"},
	{Name: "e2e.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "e2e.follower_lag_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "e2e.follower_lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "e2e.failed_frac", Unit: "frac", Better: "lower"},
	{Name: "gateway.round_busy_ms", Unit: "ms", Better: "lower"},

	{Name: "scaddar.locate_ns", Unit: "ns", Better: "lower"},
	{Name: "scaddar.locate_batch_ns_per_block", Unit: "ns", Better: "lower"},
	{Name: "scaddar.compile_us", Unit: "us", Better: "lower"},
	{Name: "scaddar.history_codec_us", Unit: "us", Better: "lower"},
	{Name: "placement.disk_ns", Unit: "ns", Better: "lower"},
	{Name: "cm.snapshot_locate_ns", Unit: "ns", Better: "lower"},
	{Name: "cm.snapshot_locate_batch_ns_per_block", Unit: "ns", Better: "lower"},
	{Name: "cm.build_snapshot_us", Unit: "us", Better: "lower"},
	{Name: "cm.build_snapshot_allocs", Unit: "count", Better: "lower"},
	{Name: "cm.build_snapshot_bytes", Unit: "B", Better: "lower"},
	{Name: "cm.tick_idle_us", Unit: "us", Better: "lower"},
	{Name: "cm.tick_ms", Unit: "ms", Better: "lower"},
	{Name: "cm.tick_allocs", Unit: "count", Better: "lower"},
	{Name: "cm.scale_up_ms", Unit: "ms", Better: "lower"},
	{Name: "cm.blocks_served", Unit: "count", Better: "higher"},
	{Name: "cm.blocks_migrated", Unit: "count", Better: "lower"},
	{Name: "cm.degraded_reads", Unit: "count", Better: "lower"},
	{Name: "cm.hiccups", Unit: "count", Better: "lower"},
	{Name: "reorg.plan_add_ms", Unit: "ms", Better: "lower"},
	{Name: "reorg.plan_remove_ms", Unit: "ms", Better: "lower"},
	{Name: "reorg.rounds_to_drain", Unit: "count", Better: "lower"},
	{Name: "reorg.moves_per_round", Unit: "count", Better: "higher"},
	{Name: "reorg.optimal_over_moved", Unit: "ratio", Better: "higher"},
	{Name: "dataplane.read_blocks_us_per_block", Unit: "us", Better: "lower"},
	{Name: "dataplane.get_us", Unit: "us", Better: "lower"},
	{Name: "dataplane.put_us", Unit: "us", Better: "lower"},
	{Name: "dataplane.compact_ms", Unit: "ms", Better: "lower"},
	{Name: "dataplane.space_amp", Unit: "ratio", Better: "lower"},
	{Name: "dataplane.frame_append_ns", Unit: "ns", Better: "lower"},
	{Name: "dataplane.frame_read_ns", Unit: "ns", Better: "lower"},
	{Name: "dataplane.session_offer_ns", Unit: "ns", Better: "lower"},
	{Name: "dataplane.feed_publish_us", Unit: "us", Better: "lower"},
	{Name: "dataplane.client_locate_ns", Unit: "ns", Better: "lower"},
	{Name: "bufpool.get_release_ns", Unit: "ns", Better: "lower"},
	{Name: "bufpool.in_use_end", Unit: "count", Better: "lower"},
	{Name: "store.append_us", Unit: "us", Better: "lower"},
	{Name: "store.sync_us", Unit: "us", Better: "lower"},
	{Name: "store.fsync_ms", Unit: "ms", Better: "lower"},
	{Name: "store.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "store.journal_bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "store.events", Unit: "count", Better: "lower"},
	{Name: "store.syncs", Unit: "count", Better: "lower"},
	{Name: "store.open_recover_ms", Unit: "ms", Better: "lower"},
	{Name: "store.replay_us_per_event", Unit: "us", Better: "lower"},
	{Name: "repl.bootstrap_ms", Unit: "ms", Better: "lower"},
	{Name: "repl.lag_events_p99", Unit: "count", Better: "lower"},
	{Name: "repl.follower_locate_ns", Unit: "ns", Better: "lower"},
	{Name: "gateway.http_read_us", Unit: "us", Better: "lower"},
	{Name: "gateway.http_read_allocs", Unit: "count", Better: "lower"},
	{Name: "gateway.exec_rtt_us", Unit: "us", Better: "lower"},
	{Name: "gateway.session_open_us", Unit: "us", Better: "lower"},
	{Name: "gateway.flushes_per_round", Unit: "count", Better: "lower"},
	{Name: "gateway.chunks_per_flush", Unit: "ratio", Better: "higher"},
	{Name: "gateway.stream_misses", Unit: "count", Better: "lower"},
	{Name: "gateway.evictions", Unit: "count", Better: "lower"},
	{Name: "gateway.overloads", Unit: "count", Better: "lower"},
	{Name: "gateway.metrics_scrape_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.write_text_us", Unit: "us", Better: "lower"},
	{Name: "binproto.encode_batch_ns", Unit: "ns", Better: "lower"},
	{Name: "binproto.decode_batch_ns", Unit: "ns", Better: "lower"},
	{Name: "binproto.batch_rtt_us", Unit: "us", Better: "lower"},
	{Name: "binproto.single_rtt_us", Unit: "us", Better: "lower"},
	{Name: "binproto.single_allocs", Unit: "count", Better: "lower"},
	{Name: "binproto.ping_rtt_us", Unit: "us", Better: "lower"},
	{Name: "cluster.route_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.proxy_read_us", Unit: "us", Better: "lower"},
	{Name: "cluster.proxy_read_allocs", Unit: "count", Better: "lower"},
	{Name: "cluster.status_fanout_ms", Unit: "ms", Better: "lower"},
	{Name: "baseline.tcp_echo_rtt_us", Unit: "us", Better: "lower"},
	{Name: "baseline.http_echo_rtt_us", Unit: "us", Better: "lower"},
	{Name: "baseline.client_us_per_op", Unit: "us", Better: "lower"},
	{Name: "baseline.reader_late_p50_us", Unit: "us", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "higher"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "budget.sum_us", Unit: "us", Better: "lower"},
	{Name: "budget.end_to_end_us", Unit: "us", Better: "lower"},
	{Name: "budget.unexplained_frac", Unit: "frac", Better: "lower"},
}

func defByName(defs []metricDef, name string) *metricDef {
	for i := range defs {
		if defs[i].Name == name {
			return &defs[i]
		}
	}
	return nil
}

// runSeconds is the window the acceptance driver passes as --seconds.
const runSeconds = 10

// printDeclaration writes BENCHMARK.json from the definitions above, so the
// declaration and the program cannot drift (a test compares them).
func printDeclaration(w io.Writer) int {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	decl := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"go", "run", "-C", "bench", "scaddar/bench"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, d := range workloads {
		decl.Workloads = append(decl.Workloads, wl{d.Name, d.Why})
	}
	for _, d := range endToEnd {
		decl.EndToEnd = append(decl.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		decl.PerLayer = append(decl.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(decl); err != nil {
		return 1
	}
	return 0
}
