package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"scaddar/internal/obs"
)

// fanResult is one shard's answer to a fanned-out aggregation request.
type fanResult struct {
	shard  *shard
	status int
	body   []byte
	err    error
}

// fanout issues GET path to every shard concurrently, each sub-request
// under its own ShardTimeout deadline. It always returns one result per
// slot — a slow or dead shard yields an error entry after its deadline,
// never a hang: the aggregate's latency is bounded by the slowest shard or
// ShardTimeout, whichever is smaller.
func (r *Router) fanout(ctx context.Context, path string) []fanResult {
	t := r.topo.Load()
	results := make([]fanResult, len(t.slots))
	var wg sync.WaitGroup
	for i, s := range t.slots {
		wg.Add(1)
		go func(i int, s *shard) {
			defer wg.Done()
			results[i] = r.fanOne(ctx, s, path)
		}(i, s)
	}
	wg.Wait()
	return results
}

// fanOne performs a single fan-out sub-request. Errors are recorded per
// shard (metrics + result) but never fail the aggregate.
func (r *Router) fanOne(ctx context.Context, s *shard, path string) fanResult {
	rep, err := s.call(ctx, http.MethodGet, path, nil)
	if err == nil && rep.status != http.StatusOK {
		err = fmt.Errorf("status %d", rep.status)
	}
	if err != nil {
		s.fanoutErrs.Inc()
		return fanResult{shard: s, status: rep.status, err: fmt.Errorf("shard %d: %w", s.id, err)}
	}
	return fanResult{shard: s, status: rep.status, body: rep.body}
}

// handleMetrics serves the cluster-wide Prometheus page: the router's own
// registry first, then every shard's samples re-emitted with a shard label
// spliced in. A shard that fails to scrape contributes a comment line and
// a cluster_fanout_errors_total increment — partial results, never a 500.
func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	results := r.fanout(req.Context(), "/v1/metrics")
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	for _, res := range results {
		res.shard.connsIdle.SetInt(len(res.shard.idle) + len(res.shard.binIdle))
		res.shard.connsBusy.SetInt(int(res.shard.busy.Load()))
	}
	var buf bytes.Buffer
	_ = r.reg.WritePrometheus(&buf)
	for _, res := range results {
		if res.err != nil {
			fmt.Fprintf(&buf, "# shard %d scrape failed: %s\n", res.shard.id, res.err)
			continue
		}
		samples, err := obs.ParseText(bytes.NewReader(res.body))
		if err != nil {
			res.shard.fanoutErrs.Inc()
			fmt.Fprintf(&buf, "# shard %d scrape unparseable: %s\n", res.shard.id, err)
			continue
		}
		writeShardSamples(&buf, res.shard.id, samples)
	}
	_, _ = w.Write(buf.Bytes())
}

// writeShardSamples re-emits parsed shard samples with shard=<id> added as
// the first label, preserving the original labels (sorted for stability).
func writeShardSamples(w io.Writer, shardID int, samples []obs.Sample) {
	for _, s := range samples {
		fmt.Fprintf(w, "%s{shard=%q", s.Name, shardLabel(shardID))
		keys := make([]string, 0, len(s.Labels))
		for k := range s.Labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, ",%s=%q", k, escapeLabelValue(s.Labels[k]))
		}
		fmt.Fprintf(w, "} %s\n", formatSampleValue(s.Value))
	}
}

// escapeLabelValue escapes a label value for re-emission. %q handles \\ and
// \" already, so only literal newlines need help — but guard anyway.
func escapeLabelValue(v string) string {
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatSampleValue renders a re-emitted sample value, keeping the
// Prometheus spellings for infinities and NaN.
func formatSampleValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ShardStatus is one shard's slice of the aggregated GET /v1/status
// response: identity and health always, the shard's own status document
// when the scrape succeeded, an error string when it did not.
type ShardStatus struct {
	// ID is the shard's stable identity.
	ID int `json:"id"`
	// URL is the shard gateway's base URL.
	URL string `json:"url"`
	// State is the shard lifecycle state.
	State string `json:"state"`
	// Healthy mirrors the router's live health view.
	Healthy bool `json:"healthy"`
	// Status is the shard's own /v1/status document, when reachable.
	Status json.RawMessage `json:"status,omitempty"`
	// Error explains a failed scrape; the rest of the response is still
	// served (partial aggregation).
	Error string `json:"error,omitempty"`
}

// ClusterStatus is the aggregated GET /v1/status payload.
type ClusterStatus struct {
	// Cluster is the router's topology view.
	Cluster TopologyView `json:"cluster"`
	// Shards holds each shard's status or scrape error, in routing order.
	Shards []ShardStatus `json:"shards"`
}

// handleStatus aggregates every shard's status document under per-shard
// deadlines, reporting unreachable shards inline instead of failing.
func (r *Router) handleStatus(w http.ResponseWriter, req *http.Request) {
	results := r.fanout(req.Context(), "/v1/status")
	out := ClusterStatus{Cluster: r.topologyView(), Shards: make([]ShardStatus, len(results))}
	for i, res := range results {
		ss := ShardStatus{ID: res.shard.id, URL: res.shard.url,
			State: res.shard.State().String(), Healthy: res.shard.healthy.Load()}
		if res.err != nil {
			ss.Error = res.err.Error()
		} else {
			ss.Status = json.RawMessage(res.body)
		}
		out.Shards[i] = ss
	}
	writeJSON(w, http.StatusOK, out)
}

// shardTrace is one shard's slice of the aggregated trace dump.
type shardTrace struct {
	ID    int             `json:"id"`
	Trace json.RawMessage `json:"trace,omitempty"`
	Error string          `json:"error,omitempty"`
}

// handleTrace aggregates the per-shard span rings.
func (r *Router) handleTrace(w http.ResponseWriter, req *http.Request) {
	results := r.fanout(req.Context(), "/v1/trace")
	out := make([]shardTrace, len(results))
	for i, res := range results {
		st := shardTrace{ID: res.shard.id}
		if res.err != nil {
			st.Error = res.err.Error()
		} else {
			st.Trace = json.RawMessage(res.body)
		}
		out[i] = st
	}
	writeJSON(w, http.StatusOK, map[string]any{"shards": out})
}

// mergedObject carries one /v1/objects entry through the merge with enough
// structure to sort by ID while preserving the shard's own encoding.
type mergedObject struct {
	id  int
	raw json.RawMessage
}

// handleObjects merges the shards' object listings into one cluster-wide
// catalog, sorted by object ID. Shards that fail to answer are reported in
// an errors side-channel while the reachable shards' objects still serve.
func (r *Router) handleObjects(w http.ResponseWriter, req *http.Request) {
	results := r.fanout(req.Context(), "/v1/objects")
	var merged []mergedObject
	errs := map[string]string{}
	for _, res := range results {
		if res.err != nil {
			errs[shardLabel(res.shard.id)] = res.err.Error()
			continue
		}
		var items []json.RawMessage
		if err := json.Unmarshal(res.body, &items); err != nil {
			errs[shardLabel(res.shard.id)] = "unparseable listing: " + err.Error()
			continue
		}
		for _, it := range items {
			var idOnly struct {
				ID int `json:"id"`
			}
			_ = json.Unmarshal(it, &idOnly)
			merged = append(merged, mergedObject{id: idOnly.ID, raw: it})
		}
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].id < merged[j].id })
	objects := make([]json.RawMessage, len(merged))
	for i, m := range merged {
		objects[i] = m.raw
	}
	if len(errs) == 0 {
		// Transparent shape: exactly what one gateway would serve.
		writeJSON(w, http.StatusOK, objects)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"objects": objects, "errors": errs})
}

// handleAdminObjects merges the shards' full admin catalogs (the listing
// migration itself uses, shard by shard) into one cluster catalog.
func (r *Router) handleAdminObjects(w http.ResponseWriter, req *http.Request) {
	results := r.fanout(req.Context(), "/v1/admin/objects")
	var merged []catalogObject
	errs := map[string]string{}
	for _, res := range results {
		if res.err != nil {
			errs[shardLabel(res.shard.id)] = res.err.Error()
			continue
		}
		var items []catalogObject
		if err := json.Unmarshal(res.body, &items); err != nil {
			errs[shardLabel(res.shard.id)] = "unparseable catalog: " + err.Error()
			continue
		}
		merged = append(merged, items...)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].ID < merged[j].ID })
	if len(errs) == 0 {
		writeJSON(w, http.StatusOK, merged)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"objects": merged, "errors": errs})
}
