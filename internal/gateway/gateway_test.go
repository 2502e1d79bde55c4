package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"scaddar/internal/binproto"
	"scaddar/internal/cm"
	"scaddar/internal/dataplane"
	"scaddar/internal/placement"
	"scaddar/internal/prng"
	"scaddar/internal/workload"
)

func testFactory(seed uint64) prng.Source { return prng.NewSplitMix64(seed) }

// newTestServer builds a cm.Server over a SCADDAR strategy with a library
// loaded, without starting a gateway.
func newTestServer(t testing.TB, n0, objects, blocks int, mutate func(*cm.Config)) *cm.Server {
	t.Helper()
	strat, err := placement.NewScaddar(n0, placement.NewX0Func(testFactory))
	if err != nil {
		t.Fatal(err)
	}
	cfg := cm.DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := cm.NewServer(cfg, strat)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := workload.Library(workload.LibraryConfig{
		Objects: objects, MinBlocks: blocks, MaxBlocks: blocks,
		BlockBytes: cfg.BlockBytes, BitrateBitsPerSec: 4 << 20, SeedBase: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range lib {
		if err := srv.AddObject(obj); err != nil {
			t.Fatal(err)
		}
	}
	return srv
}

// newTestGateway wraps a fresh server in a fast-round gateway and registers
// cleanup.
func newTestGateway(t testing.TB, n0, objects, blocks int, mutate func(*cm.Config), gmutate func(*Config)) *Gateway {
	t.Helper()
	srv := newTestServer(t, n0, objects, blocks, mutate)
	gcfg := Config{Factory: testFactory, Round: 2 * time.Millisecond}
	if gmutate != nil {
		gmutate(&gcfg)
	}
	g, err := New(srv, gcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

// doJSON performs a request against the handler and decodes the JSON body.
func doJSON(t testing.TB, h http.Handler, method, path string, body any) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	out := map[string]any{}
	if b := bytes.TrimSpace(rec.Body.Bytes()); len(b) > 0 && b[0] == '{' {
		if err := json.Unmarshal(b, &out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec, out
}

// waitStatus polls the published status until cond holds or the deadline
// expires.
func waitStatus(t testing.TB, g *Gateway, what string, cond func(Status) bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond(g.Status()) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s; status %+v", what, g.Status())
}

func TestNewValidation(t *testing.T) {
	srv := newTestServer(t, 4, 2, 50, nil)
	if _, err := New(nil, Config{Factory: testFactory}); err == nil {
		t.Error("nil server accepted")
	}
	if _, err := New(srv, Config{}); err == nil {
		t.Error("nil factory accepted")
	}
	if _, err := New(srv, Config{Factory: testFactory, Round: -time.Second}); err == nil {
		t.Error("negative round accepted")
	}
	// Non-SCADDAR strategies cannot snapshot and must be refused up front.
	rr, err := placement.NewRoundRobin(4)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := cm.NewServer(cm.DefaultConfig(), rr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(plain, Config{Factory: testFactory}); err == nil {
		t.Error("round-robin strategy accepted")
	}
}

func TestReadEndpoint(t *testing.T) {
	g := newTestGateway(t, 4, 3, 60, nil, nil)
	h := g.Handler()

	rec, body := doJSON(t, h, "GET", "/v1/objects/1/blocks/7", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("read = %d %s", rec.Code, rec.Body)
	}
	d := int(body["disk"].(float64))
	if d < 0 || d >= 4 {
		t.Errorf("disk %d outside array", d)
	}
	// The snapshot must agree with the authoritative server lookup.
	v, err := g.Exec(context.Background(), func(s *cm.Server) (any, error) {
		want, err := s.Lookup(1, 7)
		if err != nil {
			return nil, err
		}
		got, err := s.Array().Disk(d)
		if err != nil {
			return nil, err
		}
		return want.ID() == got.ID(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !v.(bool) {
		t.Error("snapshot lookup disagrees with server lookup")
	}

	if rec, _ := doJSON(t, h, "GET", "/v1/objects/99/blocks/0", nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown object = %d, want 404", rec.Code)
	}
	if rec, _ := doJSON(t, h, "GET", "/v1/objects/1/blocks/60", nil); rec.Code != http.StatusNotFound {
		t.Errorf("out-of-range block = %d, want 404", rec.Code)
	}
	if rec, _ := doJSON(t, h, "GET", "/v1/objects/x/blocks/0", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("non-integer object = %d, want 400", rec.Code)
	}

	rec, _ = doJSON(t, h, "GET", "/v1/objects", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("objects = %d", rec.Code)
	}
	var objs []cm.SnapshotObject
	if err := json.Unmarshal(rec.Body.Bytes(), &objs); err != nil {
		t.Fatal(err)
	}
	if len(objs) != 3 || objs[0].Blocks != 60 {
		t.Errorf("objects = %+v", objs)
	}
}

func TestSessionLifecycle(t *testing.T) {
	g := newTestGateway(t, 4, 3, 60, nil, nil)
	h := g.Handler()

	rec, body := doJSON(t, h, "POST", "/v1/sessions", map[string]any{"object": 2, "position": 10})
	if rec.Code != http.StatusCreated {
		t.Fatalf("open = %d %s", rec.Code, rec.Body)
	}
	sid := int(body["session"].(float64))
	if got := body["state"].(string); got != "playing" {
		t.Errorf("state = %q", got)
	}
	if got := int(body["position"].(float64)); got != 10 {
		t.Errorf("position = %d, want 10", got)
	}

	rec, _ = doJSON(t, h, "POST", fmt.Sprintf("/v1/sessions/%d/seek", sid), map[string]any{"position": 31})
	if rec.Code != http.StatusOK {
		t.Fatalf("seek = %d %s", rec.Code, rec.Body)
	}
	rec, body = doJSON(t, h, "GET", fmt.Sprintf("/v1/sessions/%d", sid), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("get = %d", rec.Code)
	}
	// The round driver is live, so the position may already have advanced.
	if got := int(body["position"].(float64)); got < 31 {
		t.Errorf("position = %d, want >= 31", got)
	}
	rec, _ = doJSON(t, h, "DELETE", fmt.Sprintf("/v1/sessions/%d", sid), nil)
	if rec.Code != http.StatusNoContent {
		t.Fatalf("close = %d", rec.Code)
	}
	rec, body = doJSON(t, h, "GET", fmt.Sprintf("/v1/sessions/%d", sid), nil)
	if rec.Code != http.StatusOK || body["state"].(string) == "playing" {
		t.Errorf("after close: %d state %v", rec.Code, body["state"])
	}

	if rec, _ := doJSON(t, h, "GET", "/v1/sessions/9999", nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown session = %d, want 404", rec.Code)
	}
	if rec, _ := doJSON(t, h, "POST", "/v1/sessions", map[string]any{"object": 99}); rec.Code != http.StatusNotFound {
		t.Errorf("open unknown object = %d, want 404", rec.Code)
	}
	if rec, _ := doJSON(t, h, "POST", "/v1/sessions", map[string]any{"object": 1, "position": 9999}); rec.Code != http.StatusNotFound {
		t.Errorf("open with bad position = %d, want 404", rec.Code)
	}
}

func TestAdmissionRejectsWith503(t *testing.T) {
	// A 1-disk array admits utilization*capacity streams; beyond that the
	// gateway must answer 503 + Retry-After rather than overcommit.
	g := newTestGateway(t, 1, 1, 1000, func(c *cm.Config) { c.Utilization = 0.1 }, nil)
	h := g.Handler()

	var admitted, rejected int
	var retryAfter string
	for i := 0; i < 100; i++ {
		rec, _ := doJSON(t, h, "POST", "/v1/sessions", map[string]any{"object": 0})
		switch rec.Code {
		case http.StatusCreated:
			admitted++
		case http.StatusServiceUnavailable:
			rejected++
			retryAfter = rec.Header().Get("Retry-After")
		default:
			t.Fatalf("open = %d %s", rec.Code, rec.Body)
		}
	}
	if rejected == 0 {
		t.Fatal("no admission rejections in 100 opens")
	}
	if retryAfter == "" {
		t.Error("503 without Retry-After")
	}
	st := g.Status()
	cap := int(0.1 * float64(cm.DefaultConfig().Profile.BlocksPerRound(cm.DefaultConfig().Round, cm.DefaultConfig().BlockBytes)))
	if st.ActiveStreams > cap {
		t.Errorf("overcommitted: %d active > capacity %d", st.ActiveStreams, cap)
	}
	if st.Gateway.SessionsRejected != int64(rejected) {
		t.Errorf("rejected counter = %d, want %d", st.Gateway.SessionsRejected, rejected)
	}
}

func TestMailboxOverloadReturns503(t *testing.T) {
	g := newTestGateway(t, 4, 2, 50, nil, func(c *Config) { c.MailboxDepth = 2 })
	h := g.Handler()

	// Block the owner goroutine on a gate, then fill the mailbox.
	gate := make(chan struct{})
	entered := make(chan struct{})
	go func() {
		_, _ = g.Exec(context.Background(), func(s *cm.Server) (any, error) {
			close(entered)
			<-gate
			return nil, nil
		})
	}()
	<-entered
	defer close(gate)

	// Fill the two mailbox slots with parked commands.
	for i := 0; i < 2; i++ {
		go func() {
			_, _ = g.Exec(context.Background(), func(s *cm.Server) (any, error) { return nil, nil })
		}()
	}
	// Wait until both slots are occupied.
	deadline := time.Now().Add(5 * time.Second)
	for len(g.cmds) < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if len(g.cmds) != 2 {
		t.Fatalf("mailbox backlog = %d, want 2", len(g.cmds))
	}

	rec, _ := doJSON(t, h, "POST", "/v1/sessions", map[string]any{"object": 0})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("overloaded open = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if g.Status().Gateway.Overloads == 0 {
		t.Error("overload counter not incremented")
	}
}

// TestRequestDeadlineReturns504 holds the owner goroutine inside a command
// and checks who RequestTimeout binds, through the bare Handler(): a request
// that submits a command answers 504 once it has waited that long, and the
// command it gave up on never runs; a block read and a metrics scrape, which
// submit none, answer 200 meanwhile; and a session stream, a delta long-poll
// and an upgraded connection opened before the hold are all still there
// several RequestTimeouts later, and carry on when the owner does.
func TestRequestDeadlineReturns504(t *testing.T) {
	const timeout = 100 * time.Millisecond
	g, ts := newStreamGateway(t, 4, 2, 2000, func(c *Config) { c.RequestTimeout = timeout })
	h := g.Handler()

	stream, err := http.Get(fmt.Sprintf("%s/v1/sessions/%d/stream", ts.URL, openPausedSession(t, ts.URL, 0)))
	if err != nil || stream.StatusCode != http.StatusOK {
		t.Fatalf("attach: %v %v", stream, err)
	}
	defer stream.Body.Close()
	frames := bufio.NewReader(stream.Body)
	if f, err := dataplane.ReadFrame(frames); err != nil || f.End {
		t.Fatalf("first frame: %+v, %v", f, err)
	}
	poll := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Get(fmt.Sprintf("%s/v1/locator/deltas?after=%d", ts.URL, fetchWireSnapshot(t, ts.URL).Seq))
		if err != nil {
			t.Error(err)
		}
		poll <- resp
	}()
	nc, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write(binproto.AppendUpgradeRequest(nil, "", "shard")); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	if _, err := io.ReadFull(br, make([]byte, len(binproto.UpgradeReply))); err != nil {
		t.Fatal(err)
	}
	bin, err := binproto.NewSyncConn(nc, br)
	if err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	entered := make(chan struct{})
	go func() {
		_, _ = g.Exec(context.Background(), func(s *cm.Server) (any, error) {
			close(entered)
			<-gate
			return nil, nil
		})
	}()
	<-entered
	start := time.Now()
	rec, _ := doJSON(t, h, "POST", "/v1/scale", map[string]any{"add": 1})
	if waited := time.Since(start); rec.Code != http.StatusGatewayTimeout || waited < timeout {
		t.Fatalf("control request with the owner held = %d after %s, want 504 after %s", rec.Code, waited, timeout)
	}
	if rec, _ := doJSON(t, h, "GET", "/v1/objects/1/blocks/7", nil); rec.Code != http.StatusOK {
		t.Errorf("block read with the owner held = %d", rec.Code)
	}
	mrec := httptest.NewRecorder()
	h.ServeHTTP(mrec, httptest.NewRequest("GET", "/v1/metrics", nil))
	if mrec.Code != http.StatusOK {
		t.Errorf("metrics scrape with the owner held = %d", mrec.Code)
	}
	time.Sleep(4*timeout - time.Since(start))
	if loc, _, err := bin.Locate(1, 7); err != nil || loc.Code != 0 {
		t.Errorf("upgraded connection, four RequestTimeouts on: %+v, %v", loc, err)
	}
	select {
	case resp := <-poll:
		t.Fatalf("the delta long-poll was answered with nothing published: %v", resp)
	default:
	}

	close(gate)
	if rec, _ := doJSON(t, h, "POST", "/v1/scale", map[string]any{"add": 1}); rec.Code != http.StatusAccepted {
		t.Fatalf("scale after the hold = %d: the abandoned one ran, or the owner is stuck", rec.Code)
	}
	if resp := <-poll; resp != nil {
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("delta long-poll, parked across the hold = %d", resp.StatusCode)
		}
	}
	if f, err := dataplane.ReadFrame(frames); err != nil || f.End {
		t.Errorf("session stream, attached across the hold: %+v, %v", f, err)
	}
}

func TestScaleOverHTTP(t *testing.T) {
	g := newTestGateway(t, 4, 4, 100, nil, nil)
	h := g.Handler()
	// A playing stream (100 rounds of it) keeps the scale-up's three rounds on
	// the Round clock, so the second operation below arrives mid-drain.
	if _, err := g.Exec(context.Background(), func(s *cm.Server) (any, error) { return s.StartStream(0) }); err != nil {
		t.Fatal(err)
	}

	rec, body := doJSON(t, h, "POST", "/v1/scale", map[string]any{"add": 2})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("scale = %d %s", rec.Code, rec.Body)
	}
	if got := int(body["nAfter"].(float64)); got != 6 {
		t.Errorf("nAfter = %d, want 6", got)
	}
	if int(body["moves"].(float64)) == 0 {
		t.Error("scale-up planned no moves")
	}

	// A second scaling operation while the first drains is a conflict.
	if rec, _ := doJSON(t, h, "POST", "/v1/scale", map[string]any{"add": 1}); rec.Code != http.StatusConflict {
		t.Errorf("concurrent scale = %d, want 409", rec.Code)
	}

	waitStatus(t, g, "scale-up drain", func(st Status) bool {
		return !st.Reorganizing && st.Disks == 6 && st.MigrationRemaining == 0
	})
	// Reads must succeed on the rebalanced array.
	if rec, _ := doJSON(t, h, "GET", "/v1/objects/3/blocks/42", nil); rec.Code != http.StatusOK {
		t.Errorf("read after scale = %d", rec.Code)
	}

	rec, body = doJSON(t, h, "POST", "/v1/scale", map[string]any{"remove": []int{1, 4}})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("scale down = %d %s", rec.Code, rec.Body)
	}
	if got := int(body["nAfter"].(float64)); got != 4 {
		t.Errorf("nAfter = %d, want 4", got)
	}
	waitStatus(t, g, "scale-down drain", func(st Status) bool {
		return !st.Reorganizing && st.Disks == 4
	})

	if _, err := g.Exec(context.Background(), func(s *cm.Server) (any, error) {
		return nil, s.VerifyIntegrity()
	}); err != nil {
		t.Fatalf("integrity after scaling: %v", err)
	}

	if rec, _ := doJSON(t, h, "POST", "/v1/scale", map[string]any{}); rec.Code != http.StatusBadRequest {
		t.Errorf("empty scale = %d, want 400", rec.Code)
	}
	if rec, _ := doJSON(t, h, "POST", "/v1/scale", map[string]any{"add": 1, "remove": []int{0}}); rec.Code != http.StatusBadRequest {
		t.Errorf("ambiguous scale = %d, want 400", rec.Code)
	}
}

func TestHealthzAndDrain(t *testing.T) {
	g := newTestGateway(t, 4, 2, 30, nil, nil)
	h := g.Handler()

	rec, body := doJSON(t, h, "GET", "/v1/healthz", nil)
	if rec.Code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz = %d %v", rec.Code, body)
	}

	// Open a session, then drain: the session must play out before
	// Shutdown returns, and new sessions must be refused meanwhile.
	rec, _ = doJSON(t, h, "POST", "/v1/sessions", map[string]any{"object": 0})
	if rec.Code != http.StatusCreated {
		t.Fatalf("open = %d", rec.Code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- g.Shutdown(ctx) }()

	waitStatus(t, g, "draining flag", func(st Status) bool { return st.Draining })
	if rec, _ := doJSON(t, h, "POST", "/v1/sessions", map[string]any{"object": 0}); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("open during drain = %d, want 503", rec.Code)
	}
	if rec, _ := doJSON(t, h, "GET", "/v1/healthz", nil); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain = %d, want 503", rec.Code)
	}

	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	st := g.Status()
	if st.ActiveStreams != 0 {
		t.Errorf("streams still active after drain: %d", st.ActiveStreams)
	}
	if st.Server.StreamsCompleted == 0 {
		t.Error("drained session did not play out")
	}

	// After shutdown the control plane answers ErrDraining, not a hang.
	if _, err := g.Exec(context.Background(), func(s *cm.Server) (any, error) { return nil, nil }); !errors.Is(err, ErrDraining) {
		t.Errorf("Exec after shutdown = %v, want ErrDraining", err)
	}
}

func TestDrillOverHTTP(t *testing.T) {
	g := newTestGateway(t, 6, 4, 80, func(c *cm.Config) { c.Redundancy = cm.RedundancyMirror }, nil)
	h := g.Handler()

	rec, _ := doJSON(t, h, "POST", "/v1/disks/2/fail", nil)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("fail = %d %s", rec.Code, rec.Body)
	}
	waitStatus(t, g, "degraded", func(st Status) bool { return st.Degraded })

	// Reads on the failed disk's blocks still resolve (mirror failover is
	// the server's business; the location answer stays correct).
	if rec, _ := doJSON(t, h, "GET", "/v1/objects/0/blocks/5", nil); rec.Code != http.StatusOK {
		t.Errorf("read while degraded = %d", rec.Code)
	}

	// Failing a failed disk is a conflict, not a 500.
	if rec, _ := doJSON(t, h, "POST", "/v1/disks/2/fail", nil); rec.Code != http.StatusConflict {
		t.Errorf("double fail = %d, want 409", rec.Code)
	}

	rec, _ = doJSON(t, h, "POST", "/v1/disks/2/repair", nil)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("repair = %d %s", rec.Code, rec.Body)
	}
	waitStatus(t, g, "rebuild", func(st Status) bool { return !st.Degraded })

	if _, err := g.Exec(context.Background(), func(s *cm.Server) (any, error) {
		return nil, s.VerifyIntegrity()
	}); err != nil {
		t.Fatalf("integrity after drill: %v", err)
	}
	st := g.Status()
	if st.Server.BlocksRebuilt == 0 {
		t.Error("no blocks rebuilt")
	}
}
