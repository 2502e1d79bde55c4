package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"scaddar/internal/obs"
	"scaddar/internal/store"
)

// scrape fetches /v1/metrics from the handler and parses the exposition.
func scrape(t testing.TB, h http.Handler) *obs.MetricSet {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/v1/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/metrics: %d %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/v1/metrics Content-Type %q", ct)
	}
	samples, err := obs.ParseText(rec.Body)
	if err != nil {
		t.Fatalf("parse exposition: %v", err)
	}
	return obs.NewMetricSet(samples)
}

// TestMetricsEndpointUnderScaleUp is the observability integration test:
// a store-backed gateway serves reads over real HTTP while a scale-up
// drains, and afterwards /v1/metrics exposes a consistent Prometheus view —
// gateway latency histograms, per-disk load gauges, migration counters, and
// journal fsync stats.
func TestMetricsEndpointUnderScaleUp(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, 4, 3, 60, nil)
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Bootstrap(srv); err != nil {
		t.Fatal(err)
	}
	g := newTestGateway2(t, srv, st)
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()
	client := ts.Client()

	get := func(path string) int {
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for i := 0; i < 50; i++ {
		if code := get(fmt.Sprintf("/v1/objects/%d/blocks/%d", i%3, i)); code != http.StatusOK {
			t.Fatalf("read %d: status %d", i, code)
		}
	}
	get("/v1/objects/99/blocks/0") // one read error

	rec, _ := doJSON(t, g.Handler(), http.MethodPost, "/v1/scale", map[string]any{"add": 2})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("scale: %d %s", rec.Code, rec.Body.String())
	}
	waitStatus(t, g, "migration drain", func(s Status) bool { return !s.Reorganizing })
	for i := 0; i < 20; i++ {
		get(fmt.Sprintf("/v1/objects/%d/blocks/%d", i%3, i))
	}
	// One more settled round so the owner goroutine republishes the gauges.
	time.Sleep(10 * time.Millisecond)

	ms := scrape(t, g.Handler())
	want := func(name string) float64 {
		t.Helper()
		v, ok := ms.Value(name)
		if !ok {
			t.Fatalf("metric %s missing from exposition", name)
		}
		return v
	}

	if v := want("gateway_reads_total"); v < 70 {
		t.Errorf("gateway_reads_total = %g, want >= 70", v)
	}
	if v := want("gateway_read_errors_total"); v < 1 {
		t.Errorf("gateway_read_errors_total = %g, want >= 1", v)
	}
	if h, ok := ms.Histogram("gateway_read_seconds", "", ""); !ok || h.Count < 70 {
		t.Errorf("gateway_read_seconds count = %d (found %v), want >= 70", h.Count, ok)
	}
	for _, phase := range []string{"admission", "locate", "service"} {
		h, ok := ms.Histogram("gateway_read_phase_seconds", "phase", phase)
		if !ok || h.Count == 0 {
			t.Errorf("gateway_read_phase_seconds{phase=%q} empty (found %v)", phase, ok)
		}
	}
	if h, ok := ms.Histogram("gateway_tick_seconds", "", ""); !ok || h.Count == 0 {
		t.Error("gateway_tick_seconds recorded no rounds")
	}

	if v := want("cm_disks"); v != 6 {
		t.Errorf("cm_disks = %g, want 6", v)
	}
	if v := want("cm_rounds_total"); v == 0 {
		t.Error("cm_rounds_total did not advance")
	}
	if v := want("cm_blocks_migrated_total"); v == 0 {
		t.Error("cm_blocks_migrated_total = 0 after a scale-up")
	}
	if v := want("cm_migration_pending"); v != 0 {
		t.Errorf("cm_migration_pending = %g after drain", v)
	}
	if v, ok := ms.LabelValue("cm_events_total", "kind", "scale-up-started"); !ok || v != 1 {
		t.Errorf("cm_events_total{kind=scale-up-started} = %g (found %v), want 1", v, ok)
	}

	// The operation was planned once, and drained exactly what was planned.
	if h, ok := ms.Histogram("cm_plan_seconds", "", ""); !ok || h.Count != 1 || h.Sum <= 0 {
		t.Errorf("cm_plan_seconds = %d observations summing to %g (found %v), want the one scale-up", h.Count, h.Sum, ok)
	}
	if v := want("cm_plan_moves_total"); v == 0 || v != want("cm_blocks_migrated_total") {
		t.Errorf("cm_plan_moves_total = %g, cm_blocks_migrated_total = %g; want them equal", v, want("cm_blocks_migrated_total"))
	}
	// The drain's last delivery is a snapshot delta, and the feed's ring
	// begins at it: one delta, nothing pending, three catalogue rows.
	if n, b := want("gateway_locator_feed_retained_deltas"), want("gateway_locator_feed_retained_bytes"); n != 1 || b != 3*32 {
		t.Errorf("the feed retains %g deltas and %g bytes after the drain, want 1 and 96", n, b)
	}

	// Per-disk load gauges cover all six disks and add up to the total.
	var loadSum float64
	for d := 0; d < 6; d++ {
		v, ok := ms.LabelValue("cm_disk_load_blocks", "disk", strconv.Itoa(d))
		if !ok {
			t.Fatalf("cm_disk_load_blocks{disk=%d} missing", d)
		}
		loadSum += v
	}
	if total := want("cm_total_blocks"); loadSum != total {
		t.Errorf("per-disk loads sum to %g, cm_total_blocks = %g", loadSum, total)
	}

	// The journal saw the scale-up: appends, group commits, latency samples.
	if v := want("store_appends_total"); v == 0 {
		t.Error("store_appends_total = 0 with a store attached")
	}
	if v := want("store_fsyncs_total"); v == 0 {
		t.Error("store_fsyncs_total = 0 with a store attached")
	}
	if h, ok := ms.Histogram("store_fsync_seconds", "", ""); !ok || h.Count == 0 {
		t.Error("store_fsync_seconds recorded nothing")
	}
	if v := want("store_durable_lsn"); v == 0 {
		t.Error("store_durable_lsn = 0 after journaled mutations")
	}
}

// TestReadInstrumentationZeroAlloc is the acceptance guard: recording a
// read's phase split into the shared histograms must not allocate, so
// instrumentation never adds GC pressure to the hot path.
func TestReadInstrumentationZeroAlloc(t *testing.T) {
	g := newTestGateway(t, 4, 2, 50, nil, nil)
	allocs := testing.AllocsPerRun(1000, func() {
		g.m.observeRead(50*time.Microsecond, 80*time.Microsecond, 120*time.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("observeRead allocates %.1f per call, want 0", allocs)
	}
}

// TestTraceAndStatusEndpoints checks the two JSON observability endpoints:
// /v1/status carries the status document (moved off /v1/metrics) and
// /v1/trace dumps the span ring with the server's event history.
func TestTraceAndStatusEndpoints(t *testing.T) {
	g := newTestGateway(t, 4, 2, 50, nil, nil)
	h := g.Handler()

	rec, body := doJSON(t, h, http.MethodGet, "/v1/status", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/status: %d", rec.Code)
	}
	if disks, ok := body["disks"].(float64); !ok || disks != 4 {
		t.Fatalf("/v1/status disks = %v", body["disks"])
	}
	if _, ok := body["gateway"].(map[string]any); !ok {
		t.Fatalf("/v1/status has no gateway section: %v", body)
	}

	rec, _ = doJSON(t, h, http.MethodPost, "/v1/scale", map[string]any{"add": 1})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("scale: %d %s", rec.Code, rec.Body.String())
	}
	waitStatus(t, g, "migration drain", func(s Status) bool { return !s.Reorganizing })

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/trace", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/trace: %d", rec.Code)
	}
	var dump struct {
		Total uint64     `json:"total"`
		Spans []obs.Span `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatalf("/v1/trace decode: %v", err)
	}
	if dump.Total == 0 || len(dump.Spans) == 0 {
		t.Fatalf("/v1/trace empty: total %d, %d spans", dump.Total, len(dump.Spans))
	}
	var sawScale, sawMigrate bool
	for _, sp := range dump.Spans {
		switch sp.Kind {
		case "scale-up-started":
			sawScale = true
			if sp.Count != 1 {
				t.Errorf("scale-up span count = %d, want 1", sp.Count)
			}
		case "blocks-migrated":
			sawMigrate = true
		}
	}
	if !sawScale || !sawMigrate {
		t.Fatalf("trace missing events: scale=%v migrate=%v in %d spans",
			sawScale, sawMigrate, len(dump.Spans))
	}
}
