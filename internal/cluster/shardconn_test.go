package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scaddar/internal/binproto"
	"scaddar/internal/frame"
	"scaddar/internal/obs"
)

// countingListener counts accepted connections: the shard's view of how
// often the router dialed it.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// answerFunc is a stub shard's reply to one OpLocate frame: the bytes to
// write, built in dst. Anything short of a whole frame — nil included — and
// the stub hangs up after writing it.
type answerFunc func(dst []byte, corr, object, index uint32) []byte

// locateFrame appends the reply frame of a resolved OpLocate to dst[:0].
func locateFrame(dst []byte, corr uint32, epoch uint64, disk uint32, flags uint8) []byte {
	le := binary.LittleEndian
	dst = append(frame.Begin(dst[:0]), binproto.OpLocate|binproto.RespFlag)
	dst = le.AppendUint32(le.AppendUint64(le.AppendUint32(dst, corr), epoch), disk)
	return frame.Finish(append(dst, flags), 0)
}

// onDisk1 answers every lookup "disk 1, healthy, epoch 12".
func onDisk1(dst []byte, corr, _, _ uint32) []byte { return locateFrame(dst, corr, 12, 1, 0) }

// serveLocates is a shard's side of an upgraded connection, canned: the 101,
// the handshake, then answer's bytes for every OpLocate frame. It allocates
// nothing per frame unless answer does.
func serveLocates(conn net.Conn, answer answerFunc) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	hs := make([]byte, len(binproto.Magic)+1)
	if _, err := io.WriteString(conn, binproto.UpgradeReply); err != nil {
		return
	}
	if _, err := io.ReadFull(br, hs); err != nil || string(hs[:4]) != binproto.Magic {
		return
	}
	if _, err := conn.Write(hs); err != nil {
		return
	}
	var in, out []byte
	for {
		p, err := frame.Read(br, &in, binproto.MaxFrameLen)
		if err != nil || len(p) != 13 || p[0] != binproto.OpLocate {
			return
		}
		le := binary.LittleEndian
		out = answer(out, le.Uint32(p[1:]), le.Uint32(p[5:]), le.Uint32(p[9:]))
		_, err = conn.Write(out)
		if _, _, torn := frame.Next(out, binproto.MaxFrameLen); err != nil || torn != nil {
			return
		}
	}
}

// stubShard is a shard reduced to canned answers: h for HTTP requests and
// answer for the block reads that arrive on upgraded connections.
type stubShard struct {
	ln  *countingListener
	srv *http.Server

	mu       sync.Mutex
	upgraded []net.Conn
}

// startStub serves the stub on addr ("127.0.0.1:0", or a fixed address to
// restart a stub where its predecessor listened) behind a counting listener.
func startStub(t testing.TB, addr string, h http.HandlerFunc, answer answerFunc) *stubShard {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	st := &stubShard{ln: &countingListener{Listener: ln}}
	st.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != binproto.UpgradePath {
			h(w, req)
			return
		}
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			return
		}
		st.mu.Lock()
		st.upgraded = append(st.upgraded, conn)
		st.mu.Unlock()
		serveLocates(conn, answer)
	})}
	go st.srv.Serve(st.ln)
	t.Cleanup(st.Close)
	return st
}

// hangUp closes the upgraded connections from the shard's side and leaves
// the listener up — what the binary server's idle timeout does.
func (st *stubShard) hangUp() {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, c := range st.upgraded {
		c.Close()
	}
	st.upgraded = nil
}

// Close stops the stub as a killed shard process stops: listener and every
// connection, upgraded ones included (http.Server.Close forgot those).
func (st *stubShard) Close() {
	st.srv.Close()
	st.hangUp()
}

// url is the stub's base URL.
func (st *stubShard) url() string { return "http://" + st.ln.Addr().String() }

// joinReply answers the two requests AddShard vets a joining shard with
// (healthy, empty catalog) and reports whether req was one of them.
func joinReply(w http.ResponseWriter, req *http.Request) bool {
	switch {
	case req.Method != http.MethodGet:
		return false
	case req.URL.Path == "/v1/healthz":
		io.WriteString(w, `{"status":"ok"}`)
	case req.URL.Path == "/v1/admin/objects":
		io.WriteString(w, `[]`)
	default:
		return false
	}
	return true
}

// routerOver builds a prober-less router with the given shards joined.
func routerOver(t testing.TB, urls ...string) *Router {
	t.Helper()
	r, err := NewRouter(RouterConfig{ShardTimeout: 2 * time.Second, ProbeInterval: -1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	for _, u := range urls {
		if _, _, err := r.AddShard(context.Background(), u); err != nil {
			t.Fatalf("AddShard %s: %v", u, err)
		}
	}
	return r
}

const stubRead = "/v1/objects/7/blocks/3"

// stubSession is a route that still reaches the shard through call: session
// 1 of shard 0.
const stubSession = "/v1/sessions/1024"

// TestShardPoolReusesConnections pins the fix for the two-idle-connections
// default the router used to inherit: 32 concurrent readers of one shard
// cost at most 32 dials while the pool warms and none afterwards, and the
// pool's counters say the same on /v1/cluster/shards and /v1/metrics.
func TestShardPoolReusesConnections(t *testing.T) {
	const readers = 32
	var (
		warm atomic.Bool
		gate sync.WaitGroup // holds warm-up requests until all are in flight
	)
	warm.Store(true)
	gate.Add(readers)
	st := startStub(t, "127.0.0.1:0", func(w http.ResponseWriter, req *http.Request) { joinReply(w, req) },
		func(dst []byte, corr, object, index uint32) []byte {
			if warm.Load() {
				gate.Done()
				gate.Wait()
			}
			return onDisk1(dst, corr, object, index)
		})
	ln := st.ln
	r := routerOver(t, st.url())
	joined := ln.accepts.Load() // the HTTP connection AddShard vetted the shard on
	h := r.Handler()
	round := func(perReader int) {
		var wg sync.WaitGroup
		for i := 0; i < readers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; n < perReader; n++ {
					if rec := rawReq(h, http.MethodGet, stubRead); rec.Code != http.StatusOK {
						t.Errorf("read: status %d: %s", rec.Code, rec.Body)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	round(1)
	warm.Store(false)
	dialed := ln.accepts.Load()
	if dialed-joined > readers {
		t.Fatalf("warm-up dialed %d connections for %d readers", dialed-joined, readers)
	}
	round(50)
	if got := ln.accepts.Load(); got != dialed {
		t.Fatalf("steady state dialed %d more connections", got-dialed)
	}

	var view TopologyView
	decode(t, doReq(t, h, http.MethodGet, "/v1/cluster/shards", nil), &view)
	if sv := view.Shards[0]; sv.Dials != dialed || sv.ConnsIdle != int(dialed) || sv.ConnsBusy != 0 || sv.ConnRetries != 0 {
		t.Errorf("shard view %+v, want dials=idle=%d busy=0 retries=0", sv, dialed)
	}
	samples, err := obs.ParseText(doReq(t, h, http.MethodGet, "/v1/metrics", nil).Body)
	if err != nil {
		t.Fatal(err)
	}
	ms := obs.NewMetricSet(samples)
	for name, want := range map[string]float64{
		"cluster_shard_dials_total":        float64(dialed),
		"cluster_shard_conns_idle":         float64(dialed),
		"cluster_shard_conns_busy":         0,
		"cluster_shard_conn_retries_total": 0,
	} {
		if got, ok := ms.LabelValue(name, "shard", "0"); !ok || got != want {
			t.Errorf("%s{shard=0} = %v (present %v), want %v", name, got, ok, want)
		}
	}
}

// TestShardCallStaleConnection restarts the shard's listener under the
// pool. A read finds its pooled connection dead, is replayed once on a
// fresh one and succeeds without the shard being marked down — as it does
// when the shard only timed the idle upgraded connection out; a non-GET in
// the same position is surfaced and never reaches the shard twice.
func TestShardCallStaleConnection(t *testing.T) {
	var posts atomic.Int64
	stub := func(w http.ResponseWriter, req *http.Request) {
		if joinReply(w, req) {
			return
		}
		if req.Method == http.MethodPost {
			posts.Add(1)
		}
		io.WriteString(w, `{}`)
	}
	st := startStub(t, "127.0.0.1:0", stub, onDisk1)
	addr := st.ln.Addr().String()
	r := routerOver(t, "http://"+addr)
	h := r.Handler()
	sh := r.topo.Load().slots[0]
	if rec := rawReq(h, http.MethodGet, stubRead); rec.Code != http.StatusOK {
		t.Fatalf("first read: status %d", rec.Code)
	}

	st.Close()
	st = startStub(t, addr, stub, onDisk1)
	if rec := rawReq(h, http.MethodGet, stubRead); rec.Code != http.StatusOK {
		t.Fatalf("read after restart: status %d: %s", rec.Code, rec.Body)
	}
	if !sh.healthy.Load() {
		t.Error("a replayed read marked the shard down")
	}
	if got := sh.connRetries.Value(); got != 1 {
		t.Errorf("conn retries %d, want 1", got)
	}

	// The binary server closes a connection idle for two minutes; the shard
	// itself never went away.
	dialed := sh.dials.Value()
	st.hangUp()
	if rec := rawReq(h, http.MethodGet, stubRead); rec.Code != http.StatusOK || !sh.healthy.Load() {
		t.Fatalf("read after the shard's idle timeout: status %d healthy=%v: %s", rec.Code, sh.healthy.Load(), rec.Body)
	}
	if retries, dials := sh.connRetries.Value(), sh.dials.Value(); retries != 2 || dials != dialed+1 || len(sh.binIdle) != 1 {
		t.Errorf("after the idle timeout: retries=%d dials=%d (+%d) idle=%d, want one replay on one fresh pooled dial",
			retries, dials, dials-dialed, len(sh.binIdle))
	}

	// The replays emptied both idle lists; pool an HTTP connection again for
	// the POST to find dead.
	if rec := rawReq(h, http.MethodGet, stubSession); rec.Code != http.StatusOK || len(sh.idle) != 1 {
		t.Fatalf("session GET: status %d, %d idle HTTP connections", rec.Code, len(sh.idle))
	}
	st.Close()
	startStub(t, addr, stub, onDisk1)
	rec := doReq(t, h, http.MethodPost, "/v1/sessions", map[string]any{"object": 7})
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("POST on a dead pooled connection: status %d, want 503", rec.Code)
	}
	if got := posts.Load(); got != 0 {
		t.Errorf("the POST reached the shard %d times; it must not be replayed", got)
	}
	if got := sh.connRetries.Value(); got != 2 {
		t.Errorf("conn retries %d after the POST, want 2", got)
	}
	// The dead connection says nothing about the shard, which is up: it stays
	// in rotation (there is no prober here to bring it back) and the client's
	// retry goes through on a fresh dial.
	if !sh.healthy.Load() {
		t.Error("a stale connection on a POST marked the live shard down")
	}
	if rec := doReq(t, h, http.MethodPost, "/v1/sessions", map[string]any{"object": 7}); rec.Code != http.StatusOK || posts.Load() != 1 {
		t.Errorf("retried POST: status %d, reached the shard %d times", rec.Code, posts.Load())
	}
}

// TestRoutedHead checks a client HEAD — the mux's GET patterns match it —
// gets the GET's headers and no body, and leaves the connection and the
// shard in service.
func TestRoutedHead(t *testing.T) {
	st := startStub(t, "127.0.0.1:0", func(w http.ResponseWriter, req *http.Request) { joinReply(w, req) }, onDisk1)
	r := routerOver(t, st.url())
	h := r.Handler()
	sh := r.topo.Load().slots[0]
	rec := rawReq(h, http.MethodHead, stubRead)
	if rec.Code != http.StatusOK || rec.Body.Len() != 0 || rec.Header().Get(ShardHeader) != "0" ||
		rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("HEAD: status %d, %d body bytes, headers %v", rec.Code, rec.Body.Len(), rec.Header())
	}
	dialed := st.ln.accepts.Load()
	if rec := rawReq(h, http.MethodGet, stubRead); rec.Code != http.StatusOK || !sh.healthy.Load() {
		t.Errorf("GET after HEAD: status %d, healthy=%v", rec.Code, sh.healthy.Load())
	}
	if got := st.ln.accepts.Load(); got != dialed {
		t.Errorf("the HEAD's connection was not reused: %d more dials", got-dialed)
	}
}

// TestShardReplyOverLimit checks a shard reply over maxReplyBytes is an
// error on every path that goes through call — 502 routed (a session GET: a
// block read's reply is a frame, bounded by binproto.MaxFrameLen instead),
// an error entry fanned out, a terminal (unretried) failure in migration —
// however the shard delimits the body, and never a truncated body under the
// shard's 200.
func TestShardReplyOverLimit(t *testing.T) {
	for _, mode := range []string{"content-length", "chunked"} {
		t.Run(mode, func(t *testing.T) {
			var big atomic.Bool
			var catalogs atomic.Int64
			st := startStub(t, "127.0.0.1:0", func(w http.ResponseWriter, req *http.Request) {
				if !big.Load() {
					if !joinReply(w, req) {
						io.WriteString(w, `{}`)
					}
					return
				}
				if req.URL.Path == "/v1/admin/objects" {
					catalogs.Add(1)
				}
				if mode == "content-length" {
					// Declared, not sent: the router must refuse on the header.
					w.Header().Set("Content-Length", fmt.Sprint(maxReplyBytes+1))
					w.WriteHeader(http.StatusOK)
					return
				}
				w.(http.Flusher).Flush()
				w.Write(bytes.Repeat([]byte{'x'}, maxReplyBytes+1))
			}, onDisk1)
			r := routerOver(t, st.url())
			h := r.Handler()
			sh := r.topo.Load().slots[0]
			big.Store(true)

			rec := rawReq(h, http.MethodGet, stubSession)
			if rec.Code != http.StatusBadGateway || !strings.Contains(rec.Body.String(), "exceeds") {
				t.Errorf("routed session GET: status %d body %.80q, want 502", rec.Code, rec.Body)
			}
			if !sh.healthy.Load() || sh.routedErrs.Value() != 1 {
				t.Errorf("healthy=%v routedErrs=%d, want a counted error on a live shard",
					sh.healthy.Load(), sh.routedErrs.Value())
			}

			var status ClusterStatus
			decode(t, doReq(t, h, http.MethodGet, "/v1/status", nil), &status)
			if e := status.Shards[0].Error; !strings.Contains(e, "exceeds") || status.Shards[0].Status != nil {
				t.Errorf("fan-out entry error=%q status=%.40q, want the over-limit error alone", e, status.Shards[0].Status)
			}

			_, err := r.fetchCatalog(context.Background(), sh)
			if !errors.Is(err, errReplyTooLarge) {
				t.Errorf("migration catalog fetch: %v, want errReplyTooLarge", err)
			}
			if got := catalogs.Load(); got != 1 {
				t.Errorf("migration asked for the catalog %d times; over-limit must not be retried", got)
			}
		})
	}
}

// TestForwardShortBodyMarksDown checks a reply that ends before its declared
// length — an HTTP body on a route that uses call, a reply frame on a block
// read — is a transport failure like a refused connection: 503, shard down,
// connection not pooled.
func TestForwardShortBodyMarksDown(t *testing.T) {
	for _, path := range []string{stubSession, stubRead} {
		st := startStub(t, "127.0.0.1:0", func(w http.ResponseWriter, req *http.Request) {
			if joinReply(w, req) {
				return
			}
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				return
			}
			io.WriteString(conn, "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"cut\":")
			conn.Close()
		}, func(dst []byte, corr, _, _ uint32) []byte {
			return locateFrame(dst, corr, 12, 1, 0)[:frame.HeaderLen+9] // ends inside the epoch
		})
		r := routerOver(t, st.url())
		rec := rawReq(r.Handler(), http.MethodGet, path)
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("%s: short reply: status %d, want 503: %s", path, rec.Code, rec.Body)
		}
		sh := r.topo.Load().slots[0]
		if sh.healthy.Load() || sh.routedErrs.Value() != 1 || len(sh.binIdle) != 0 {
			t.Errorf("%s: healthy=%v routedErrs=%d idle=%d, want the shard marked down and the connection dropped",
				path, sh.healthy.Load(), sh.routedErrs.Value(), len(sh.binIdle))
		}
	}
}

// TestShardConnectionsClosed pins who closes what: RemoveShard and
// Router.Close leave no pooled connection behind, and the shard-side
// goroutines serving those connections exit.
func TestShardConnectionsClosed(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	c.seedObjects(t, 24, 4)
	for id := 0; id < 24; id++ {
		c.readVia(t, id, 0)
	}
	tail := c.router.topo.Load().slots[2]
	if _, err := c.router.DrainShard(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	pooled := 0
	for _, s := range c.router.topo.Load().slots {
		// The one busy connection carries the follower's parked poll.
		idle, busy := len(s.idle)+len(s.binIdle), s.busy.Load()
		if len(s.idle) == 0 || len(s.binIdle) == 0 || busy > 1 {
			t.Fatalf("shard %d: idle=%d+%d busy=%d before closing, want a warm idle pool of both kinds and the follower's poll",
				s.id, len(s.idle), len(s.binIdle), busy)
		}
		pooled += idle
	}
	before := runtime.NumGoroutine()

	if err := c.router.RemoveShard(2); err != nil {
		t.Fatal(err)
	}
	if idle, busy := len(tail.idle)+len(tail.binIdle), tail.busy.Load(); idle != 0 || busy != 0 {
		t.Errorf("removed shard keeps idle=%d busy=%d connections", idle, busy)
	}
	c.router.Close()
	for _, s := range c.router.topo.Load().slots {
		if idle, busy := len(s.idle)+len(s.binIdle), s.busy.Load(); idle != 0 || busy != 0 {
			t.Errorf("closed router keeps idle=%d busy=%d connections to shard %d", idle, busy, s.id)
		}
	}
	// One serving goroutine per connection on the shard side; they exit as
	// the shards see the close.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before-pooled {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before closing %d connections, %d after", before, pooled, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestShardURL covers the shard addresses the router accepts.
func TestShardURL(t *testing.T) {
	r := routerOver(t)
	for _, tc := range []struct{ raw, addr, host, prefix string }{
		{"http://127.0.0.1:8081", "127.0.0.1:8081", "127.0.0.1:8081", ""},
		{"http://shard-a/", "shard-a:80", "shard-a", ""},
		{"http://[::1]:9/s0/", "[::1]:9", "[::1]:9", "/s0"},
	} {
		s, err := r.newShard(0, tc.raw, ShardActive)
		if err != nil || s.addr != tc.addr || s.host != tc.host || s.prefix != tc.prefix {
			t.Errorf("%s: got %+v, %v, want (%q, %q, %q)", tc.raw, s, err, tc.addr, tc.host, tc.prefix)
		}
	}
	for _, raw := range []string{"", "127.0.0.1:8081", "https://shard-a", "http://", "http://a/?x=1", "http://a b"} {
		if _, _, err := r.AddShard(context.Background(), raw); !errors.Is(err, ErrBadShardOp) {
			t.Errorf("%q: error %v, want ErrBadShardOp", raw, err)
		}
	}
	// A manifest from before the router dialed shards itself may list an
	// https:// shard: the router refuses to boot and says what to edit.
	path := filepath.Join(t.TempDir(), "cluster.json")
	man := Manifest{Version: 1, NextID: 1, Buckets: 1, Shards: []ShardInfo{{ID: 0, URL: "https://shard-a", State: "active"}}}
	if err := man.Save(path); err != nil {
		t.Fatal(err)
	}
	_, err := NewRouter(RouterConfig{ManifestPath: path, ProbeInterval: -1})
	if err == nil || !strings.Contains(err.Error(), "manifest shard 0") || !strings.Contains(err.Error(), path) {
		t.Errorf("booting on an https shard: %v, want an error naming the shard and the manifest", err)
	}
}

// nullWriter is a reusable ResponseWriter.
type nullWriter struct {
	h      http.Header
	status int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) WriteHeader(status int)      { w.status = status }
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }

// routedReadAllocs is the router-side allocation count of one routed read
// that takes the hop, Handler() to the last Write (with a timeout context and a
// request copy per request in Handler: 12; over HTTP on the pooled
// connections: 25; through the http.Client before that: 69). None of the four
// is the hop's own. By a rate-1 memory profile: ServeMux matching two (the
// wildcard values), and context.AfterFunc for the poison two (its context and
// its stop function — this request's context cannot be cancelled; one that
// can, as under a live http.Server, also grows a done channel and a children
// map and entry). The pin holds under -race too, which is how `make verify`
// and CI run it: there sync.Pool drops a quarter of its Puts and a fresh body
// scratch (binproto's readReplies) is two allocations, a mean of 4.47 that
// AllocsPerRun floors to 4; a fifth allocation per read reads 5.
//
// localReadAllocs is the same count for a read answered from the shard's
// view: the mux's two and nothing else — no connection, so no poison; the
// view's lookup, the four conditions and the counters allocate nothing.
const routedReadAllocs, localReadAllocs = 4, 2

// TestRoutedReadAllocs keeps the routed read's diet from regressing, on both
// of its paths. The stub serves no feed, so every read of it takes the hop,
// and its upgraded connections allocate nothing per frame, so the count taken
// across it is the router's alone; the real gateway's view answers the read in
// the handler, with its metrics on.
func TestRoutedReadAllocs(t *testing.T) {
	st := startStub(t, "127.0.0.1:0", func(w http.ResponseWriter, req *http.Request) { joinReply(w, req) }, onDisk1)
	sh := bootShard(t, shardOpts{round: time.Hour})
	c := &testCluster{router: routerOver(t, sh.srv.URL), shards: []*testShard{sh}}
	c.seedObject(t, 7, 8)
	c.settle(t)
	for _, tc := range []struct {
		path  string
		h     http.Handler
		pin   float64
		local uint64
	}{{"hop", routerOver(t, st.url()).Handler(), routedReadAllocs, 0}, {"view", c.router.Handler(), localReadAllocs, 501}} {
		req := httptest.NewRequest(http.MethodGet, stubRead, nil)
		w := &nullWriter{h: make(http.Header)}
		before := c.localReads()
		got := testing.AllocsPerRun(500, func() {
			clear(w.h)
			tc.h.ServeHTTP(w, req)
		})
		if w.status != http.StatusOK || w.h.Get(ShardHeader) != "0" || w.h.Get("Content-Type") != "application/json" {
			t.Fatalf("routed read by the %s: status %d headers %v", tc.path, w.status, w.h)
		}
		if local := c.localReads() - before; local != tc.local {
			t.Errorf("routed read by the %s: %d reads answered from the view, want %d", tc.path, local, tc.local)
		}
		if got > tc.pin {
			t.Errorf("routed read by the %s allocates %.0f times on the router side, pinned at %.0f", tc.path, got, tc.pin)
		}
		t.Logf("routed read by the %s: %.0f router-side allocations", tc.path, got)
	}
}

// replyCases are the reply shapes readReply has to tell apart; they seed
// FuzzShardResponse too. wantErr "" means a reply of the given status and
// body; keep is whether the connection may carry another exchange.
var replyCases = []struct {
	name, method, wire string
	status             int
	body, wantErr      string
	keep               bool
}{
	{name: "plain", wire: "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 11\r\n\r\n{\"disk\":3}\n",
		status: 200, body: "{\"disk\":3}\n", keep: true},
	{name: "retry-after", wire: "HTTP/1.1 503 Service Unavailable\r\nretry-after: 1\r\nContent-Length: 0\r\n\r\n",
		status: 503, keep: true},
	{name: "chunked", wire: "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
		status: 200, body: "hello", keep: true},
	{name: "204 without a length", wire: "HTTP/1.1 204 No Content\r\n\r\n", status: 204, keep: true},
	{name: "304 with a length", wire: "HTTP/1.1 304 Not Modified\r\nContent-Length: 5\r\n\r\n", status: 304, keep: true},
	{name: "HEAD", method: http.MethodHead, wire: "HTTP/1.1 200 OK\r\nContent-Length: 42\r\n\r\n", status: 200, keep: true},
	{name: "HEAD over the cap", method: http.MethodHead, wire: "HTTP/1.1 200 OK\r\nContent-Length: 8388609\r\n\r\n",
		status: 200, keep: true},
	{name: "Connection: close", wire: "HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nuntil the end",
		status: 200, body: "until the end"},
	{name: "HTTP/1.0", wire: "HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok", status: 200, body: "ok"},
	{name: "over the cap", wire: "HTTP/1.1 200 OK\r\nContent-Length: 8388609\r\n\r\nx", wantErr: "exceeds"},
	{name: "negative length", wire: "HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n", wantErr: "Content-Length"},
	{name: "two lengths", wire: "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nabc", wantErr: "Content-Length"},
	{name: "short body", wire: "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort", wantErr: "EOF"},
	{name: "torn header", wire: "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n", wantErr: "EOF"},
	{name: "header beyond the buffer", wire: "HTTP/1.1 200 OK\r\nX-Pad: " + strings.Repeat("p", 2*connBufBytes) +
		"\r\nContent-Length: 1\r\n\r\nx", status: 200, body: "x", keep: true},
}

// TestReadReply pins how each reply shape is framed: which carry a body,
// which end the connection, which are refused.
func TestReadReply(t *testing.T) {
	for _, tc := range replyCases {
		t.Run(tc.name, func(t *testing.T) {
			br := bufio.NewReaderSize(strings.NewReader(tc.wire), connBufBytes)
			rep, keep, err := readReply(br, tc.method)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) || keep {
					t.Fatalf("got status %d keep=%v err=%v, want an error naming %q", rep.status, keep, err, tc.wantErr)
				}
				return
			}
			if err != nil || rep.status != tc.status || string(rep.body) != tc.body || keep != tc.keep {
				t.Fatalf("got (%d %q keep=%v err=%v), want (%d %q keep=%v)",
					rep.status, rep.body, keep, err, tc.status, tc.body, tc.keep)
			}
			if keep && br.Buffered() != 0 {
				t.Errorf("kept a connection with %d unread bytes", br.Buffered())
			}
		})
	}
}

// FuzzShardResponse feeds readReply arbitrary shard bytes: it never panics,
// never hands back more than maxReplyBytes or a body for a HEAD, and never
// keeps a connection whose reply it could not read.
func FuzzShardResponse(f *testing.F) {
	for _, tc := range replyCases {
		f.Add([]byte(tc.wire), tc.method == http.MethodHead)
	}
	f.Fuzz(func(t *testing.T, data []byte, head bool) {
		method := http.MethodGet
		if head {
			method = http.MethodHead
		}
		rep, keep, err := readReply(bufio.NewReaderSize(bytes.NewReader(data), connBufBytes), method)
		if len(rep.body) > maxReplyBytes || head && len(rep.body) > 0 || keep && err != nil {
			t.Fatalf("%s: %d body bytes, keep=%v, err=%v", method, len(rep.body), keep, err)
		}
	})
}

// scriptConn is the shard's side of a connection played from a script: reads
// come from it, writes vanish.
type scriptConn struct {
	net.Conn // nil: the methods below are all a round trip calls
	r        *bytes.Reader
}

func (c scriptConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c scriptConn) Write(p []byte) (int, error) { return len(p), nil }
func (c scriptConn) SetDeadline(time.Time) error { return nil }
func (c scriptConn) Close() error                { return nil }

// FuzzShardBinReply feeds the read path arbitrary bytes as the shard's side
// of a freshly dialed connection — the 101, the handshake, the reply frame:
// it never panics, never returns a connection to the pool after an error or
// with bytes unread, and never returns an answer the script does not spell
// out — the bytes it consumed must end in one whole frame with a good CRC
// that answers request #1 with the locate opcode (or a typed error), of
// exactly the length that answer has. Allocation is frame.Read's bound,
// MaxFrameLen (FuzzFrame).
func FuzzShardBinReply(f *testing.F) {
	golden := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join("..", "binproto", "testdata", name+".bin"))
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	open := append([]byte(binproto.UpgradeReply), golden("handshake")...)
	script := func(frame []byte) []byte { return append(append([]byte(nil), open...), frame...) }
	f.Add(script(locateFrame(nil, 1, 12, 3, binproto.FlagReorganizing)))
	f.Add(script(locateFrame(nil, 2, 12, 3, 0)))                            // another request's reply
	f.Add(script(append(locateFrame(nil, 1, 12, 3, 0), 0)))                 // a byte behind the frame
	f.Add(script(locateFrame(nil, 1, 12, 3, 0)[:frame.HeaderLen+9]))        // torn
	f.Add(script(golden("error-unknown-opcode")))                           // a typed error, for request #9
	f.Add(script(golden("batch3-response")))                                // the wrong opcode
	f.Add(script([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0x81}))         // a length past MaxFrameLen
	f.Add([]byte("HTTP/1.1 426 Upgrade Required\r\nUpgrade: sblk\r\n\r\n")) // refused
	f.Add(append([]byte(binproto.UpgradeReply), "SBLK\x02"...))             // another version
	f.Fuzz(func(t *testing.T, data []byte) {
		// The scripted connection is the pool's only one, so the round trip
		// takes it instead of dialing, and gives it back or does not.
		s := &shard{host: "shard", timeout: time.Second, binIdle: make(chan *shardConn, 1)}
		nc := scriptConn{r: bytes.NewReader(data)}
		c := &shardConn{nc: nc, br: bufio.NewReaderSize(nc, connBufBytes), req: make([]byte, 0, connBufBytes), poison: func() {}}
		s.binIdle <- c
		loc, err := s.locate(context.Background(), 7, 3)
		kept := len(s.binIdle) == 1
		if err != nil {
			if kept {
				t.Fatalf("pooled a connection after %v", err)
			}
			return
		}
		size := frame.HeaderLen + 5 + 8 + 4 + 1
		if loc.Code != 0 {
			size = frame.HeaderLen + 5 + 2 + len(loc.Msg)
		}
		end := len(data) - nc.r.Len() - c.br.Buffered()
		if end < size {
			t.Fatalf("answer %+v after %d bytes; its frame alone is %d", loc, end, size)
		}
		p, n, err := frame.Next(data[end-size:end], binproto.MaxFrameLen)
		if err != nil || n != size {
			t.Fatalf("answer %+v, but the %d bytes before offset %d are not its frame: %v", loc, size, end, err)
		}
		le := binary.LittleEndian
		switch {
		case le.Uint32(p[1:]) != 1:
			t.Fatalf("answer %+v from a reply to request #%d", loc, le.Uint32(p[1:]))
		case loc.Code == 0 && (p[0] != binproto.OpLocate|binproto.RespFlag || le.Uint64(p[5:]) != loc.Epoch || int(int32(le.Uint32(p[13:]))) != loc.Disk):
			t.Fatalf("answer %+v from frame % x", loc, p)
		case loc.Code != 0 && (p[0] != binproto.OpError || p[5] != loc.Code || string(p[7:]) != loc.Msg):
			t.Fatalf("refusal %+v from frame % x", loc, p)
		}
		if kept != (c.br.Buffered() == 0) {
			t.Fatalf("pooled=%v with %d unread bytes", kept, c.br.Buffered())
		}
	})
}
