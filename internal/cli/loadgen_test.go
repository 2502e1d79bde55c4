package cli

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeGateway answers the handful of routes lookup mode touches, counting
// every request; scale handles POST /v1/scale.
func fakeGateway(t *testing.T, requests *atomic.Int64, scale http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/objects", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, `[{"id":0,"blocks":8},{"id":1,"blocks":8}]`)
	})
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusCreated)
		fmt.Fprint(w, `{"session":1}`)
	})
	mux.HandleFunc("DELETE /v1/sessions/{id}", func(http.ResponseWriter, *http.Request) {})
	mux.HandleFunc("GET /v1/objects/{id}/blocks/{idx}", func(http.ResponseWriter, *http.Request) {})
	// A migration that never drains.
	mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, `{"reorganizing":true}`)
	})
	mux.HandleFunc("POST /v1/scale", scale)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestLoadgenUndrainedWindow: a reorganization whose drain is never observed
// is reported as such — no negative "drained in" duration — and the window
// split still prints, open-ended: everything from the scale-up on is
// "during", nothing is "after".
func TestLoadgenUndrainedWindow(t *testing.T) {
	var requests atomic.Int64
	srv := fakeGateway(t, &requests, func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusAccepted)
	})
	var out strings.Builder
	l := &load{w: &out, hc: srv.Client(), opts: loadgenOptions{
		addr: srv.URL, duration: 60 * time.Millisecond, scaleAt: 10 * time.Millisecond, add: 2,
	}}
	start := time.Now()
	win, err := l.driveScale(context.Background(), start, 40*time.Millisecond)
	if err != nil || win == nil || win.end != undrained {
		t.Fatalf("driveScale = %+v, %v; want an undrained window", win, err)
	}
	if took := time.Since(start); took < 100*time.Millisecond {
		t.Errorf("gave up after %s, before duration+grace had passed", took)
	}
	res := &loadResult{window: win, samples: []sample{
		{at: win.start / 2, lat: time.Millisecond},
		{at: win.start, lat: time.Millisecond},
		{at: time.Hour, lat: time.Millisecond},
	}}
	l.reportWindows(res, "read latency overall:", nil)
	got := out.String()
	for _, want := range []string{
		"scale-up +2 accepted",
		"not seen to drain within 40ms",
		"read latency overall:  n=3",
		"  before reorg:        n=1",
		"  during reorg:        n=2",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	for _, bad := range []string{"drained in", "after reorg:"} {
		if strings.Contains(got, bad) {
			t.Errorf("output has %q for a window that never closed:\n%s", bad, got)
		}
	}
}

// TestLoadgenScaleErrorJoinsWorkers: when the scale request itself fails at
// the transport, the run is abandoned — well before its deadline — and the
// error comes back only once every worker has stopped sending.
func TestLoadgenScaleErrorJoinsWorkers(t *testing.T) {
	var requests atomic.Int64
	srv := fakeGateway(t, &requests, func(w http.ResponseWriter, _ *http.Request) {
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Errorf("hijack: %v", err)
			return
		}
		conn.Close()
	})
	var out strings.Builder
	start := time.Now()
	err := runLoadgen(loadgenOptions{
		addr: srv.URL, clients: 4, duration: 5 * time.Second, zipf: 0.729, seed: 7,
		scaleAt: 50 * time.Millisecond, add: 2, perSess: 4,
	}, &out)
	if err == nil || !strings.Contains(err.Error(), "scale:") {
		t.Fatalf("runLoadgen = %v, want the scale transport error\n%s", err, out.String())
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("run took %s: the failed scale request did not cancel it", took)
	}
	atReturn := requests.Load()
	time.Sleep(100 * time.Millisecond)
	if later := requests.Load(); later != atReturn {
		t.Errorf("%d requests arrived after runLoadgen returned: workers outlived the run", later-atReturn)
	}
}
