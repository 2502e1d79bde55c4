package gateway

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scaddar/internal/binproto"
	"scaddar/internal/cm"
)

// newBinGateway wires a binary listener onto a fresh test gateway.
func newBinGateway(t testing.TB, n0, objects, blocks int, mutate func(*cm.Config), gmutate func(*Config)) (*Gateway, string) {
	t.Helper()
	g := newTestGateway(t, n0, objects, blocks, mutate, gmutate)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.ServeBin(ln); err != nil {
		t.Fatal(err)
	}
	return g, ln.Addr().String()
}

// TestBinReadMatchesHTTP cross-checks the two read surfaces: every block's
// binary answer must equal the HTTP answer and the snapshot's own Locate.
func TestBinReadMatchesHTTP(t *testing.T) {
	g, addr := newBinGateway(t, 6, 4, 80, nil, nil)
	c, err := binproto.Dial(addr, binproto.ClientConfig{RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sn := g.Snapshot()
	for o := 0; o < 4; o++ {
		for i := 0; i < 80; i += 9 {
			want, err := sn.Locate(o, i)
			if err != nil {
				t.Fatal(err)
			}
			got, _, _, err := c.Locate(o, i)
			if err != nil {
				t.Fatalf("binary Locate(%d,%d): %v", o, i, err)
			}
			if got != want {
				t.Fatalf("binary Locate(%d,%d) = %d, snapshot says %d", o, i, got, want)
			}
			rec, body := doJSON(t, g.Handler(), "GET", fmt.Sprintf("/v1/objects/%d/blocks/%d", o, i), nil)
			if rec.Code != http.StatusOK {
				t.Fatalf("HTTP read %d/%d -> %d", o, i, rec.Code)
			}
			if int(body["disk"].(float64)) != got {
				t.Fatalf("block %d/%d: HTTP says disk %v, binary says %d", o, i, body["disk"], got)
			}
		}
	}
}

// TestBinMetricsOnGatewayRegistry asserts the binary path's counters land
// in the same registry the gateway serves at /v1/metrics.
func TestBinMetricsOnGatewayRegistry(t *testing.T) {
	g, addr := newBinGateway(t, 4, 2, 30, nil, nil)
	c, err := binproto.Dial(addr, binproto.ClientConfig{RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, _, err := c.Locate(0, 0); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/metrics -> %d", rec.Code)
	}
	body := rec.Body.String()
	for _, metric := range []string{"bin_connections_total", "bin_frames_total", "bin_lookups_total"} {
		if !strings.Contains(body, metric) {
			t.Fatalf("/v1/metrics lacks %s", metric)
		}
	}
}

// TestBinGatewayCloseShutsListener makes sure the gateway tears the binary
// server down with itself.
func TestBinGatewayCloseShutsListener(t *testing.T) {
	g, addr := newBinGateway(t, 4, 2, 20, nil, nil)
	c, err := binproto.Dial(addr, binproto.ClientConfig{RequestTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	g.Close()
	if err := c.Ping(); err == nil {
		t.Fatal("binary connection survived gateway Close")
	}
	if _, err := binproto.Dial(addr, binproto.ClientConfig{}); err == nil {
		t.Fatal("binary listener still accepting after gateway Close")
	}
}

// TestBinUnderReorg is the binary twin of TestGatewayUnderLoad: concurrent
// binary batch readers hammer the gateway while a scale-up and a
// disk-failure drill run, with oracle checks at every step — statuses are
// only ever OK/unknown/out-of-range, disks are in range for the echoed
// epoch, and once the dust settles every answer equals the snapshot's.
func TestBinUnderReorg(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short mode")
	}
	const objects, blocks = 10, 120
	g, addr := newBinGateway(t, 8, objects, blocks,
		func(c *cm.Config) { c.Redundancy = cm.RedundancyMirror },
		func(c *Config) { c.MailboxDepth = 256 })
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	var (
		stop       atomic.Bool
		violations atomic.Int64
		firstBad   atomic.Value
		lookups    atomic.Int64
		epochMoves atomic.Int64
	)
	fail := func(format string, args ...any) {
		violations.Add(1)
		firstBad.CompareAndSwap(nil, fmt.Sprintf(format, args...))
	}

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := binproto.Dial(addr, binproto.ClientConfig{RequestTimeout: 10 * time.Second})
			if err != nil {
				fail("dial: %v", err)
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(2000 + w)))
			addrs := make([]cm.BlockAddr, 32)
			out := make([]binproto.Result, 32)
			lastEpoch := uint64(0)
			for !stop.Load() {
				for i := range addrs {
					// Deliberately stray out of the catalog and extent.
					addrs[i] = cm.BlockAddr{Object: rng.Intn(objects + 2), Index: rng.Intn(blocks + 30)}
				}
				epoch, err := c.LocateBatch(addrs, out)
				if err != nil {
					fail("batch: %v", err)
					return
				}
				lookups.Add(int64(len(addrs)))
				if epoch != lastEpoch {
					if epoch < lastEpoch {
						fail("epoch went backwards: %d after %d", epoch, lastEpoch)
					}
					epochMoves.Add(1)
					lastEpoch = epoch
				}
				for i, a := range addrs {
					switch out[i].Code {
					case 0:
						if a.Object >= objects || a.Index >= blocks {
							fail("out-of-catalog %d/%d answered OK", a.Object, a.Index)
						}
						// 8 disks + 2 added; no answer may ever name more.
						if out[i].Disk < 0 || out[i].Disk >= 10 {
							fail("block %d/%d on impossible disk %d", a.Object, a.Index, out[i].Disk)
						}
					case binproto.ErrCodeUnknownObject:
						if a.Object < objects {
							fail("catalog object %d reported unknown", a.Object)
						}
					case binproto.ErrCodeOutOfRange:
						if a.Object < objects && a.Index < blocks {
							fail("in-extent block %d/%d reported out of range", a.Object, a.Index)
						}
					default:
						fail("entry %d/%d: unexpected status %d", a.Object, a.Index, out[i].Code)
					}
				}
			}
		}(w)
	}

	post := func(path string) *http.Response {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(`{"add": 2}`))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	waitStatus := func(what string, cond func(Status) bool) {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			if cond(g.Status()) {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		stop.Store(true)
		wg.Wait()
		t.Fatalf("timed out waiting for %s; status %+v", what, g.Status())
	}

	time.Sleep(20 * time.Millisecond)
	resp := post("/v1/scale")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("scale-up -> %d", resp.StatusCode)
	}
	resp.Body.Close()
	waitStatus("scale-up drain", func(st Status) bool { return !st.Reorganizing && st.Disks == 10 })

	for _, p := range []string{"/v1/disks/3/fail", "/v1/disks/3/repair"} {
		resp := post(p)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s -> %d", p, resp.StatusCode)
		}
		resp.Body.Close()
		time.Sleep(10 * time.Millisecond)
	}
	waitStatus("rebuild", func(st Status) bool { return !st.Degraded })

	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if n := violations.Load(); n != 0 {
		t.Fatalf("%d oracle violations; first: %v", n, firstBad.Load())
	}
	if lookups.Load() == 0 {
		t.Fatal("binary load generator idle")
	}
	if epochMoves.Load() == 0 {
		t.Fatal("no reader ever observed the epoch change across the scale-up")
	}

	// Quiescent oracle: every block's binary answer equals the final
	// snapshot's Locate.
	c, err := binproto.Dial(addr, binproto.ClientConfig{RequestTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sn := g.Snapshot()
	addrs := make([]cm.BlockAddr, 0, objects*blocks)
	for o := 0; o < objects; o++ {
		for i := 0; i < blocks; i++ {
			addrs = append(addrs, cm.BlockAddr{Object: o, Index: i})
		}
	}
	out := make([]binproto.Result, len(addrs))
	epoch, err := c.LocateBatch(addrs, out)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != sn.Epoch() {
		t.Fatalf("final epoch %d, snapshot says %d", epoch, sn.Epoch())
	}
	for k, a := range addrs {
		want, err := sn.Locate(a.Object, a.Index)
		if err != nil {
			t.Fatal(err)
		}
		if out[k].Code != 0 || out[k].Disk != want {
			t.Fatalf("block %d/%d: binary %+v, snapshot disk %d", a.Object, a.Index, out[k], want)
		}
	}
}

// TestBinUpgrade drives docs/PROTOCOL.md §1.1 against a gateway's HTTP port:
// the upgrade is answered with UpgradeReply to the byte and the connection
// then speaks the lookup protocol — answered while the gateway drains, where
// the dedicated listener's connection is refused — counted in the bin_*
// cells; a request without the headers is refused in HTTP; bytes sent
// behind the request without waiting for the 101 get the connection closed;
// and the gateway's Close ends the upgraded connection and the goroutine
// serving it, which http.Server's Close no longer would.
func TestBinUpgrade(t *testing.T) {
	g, binAddr := newBinGateway(t, 6, 2, 40, nil, func(cfg *Config) { cfg.Round = time.Hour })
	hs := httptest.NewServer(http.StripPrefix("/shard", g.Handler()))
	defer hs.Close()
	addr := strings.TrimPrefix(hs.URL, "http://")
	upgrade := func(behind string) (net.Conn, []byte) {
		t.Helper()
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		nc.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := nc.Write(append(binproto.AppendUpgradeRequest(nil, "/shard", addr), behind...)); err != nil {
			t.Fatal(err)
		}
		reply := make([]byte, len(binproto.UpgradeReply))
		n, _ := io.ReadFull(nc, reply)
		return nc, reply[:n]
	}

	nc, reply := upgrade("")
	if string(reply) != binproto.UpgradeReply {
		t.Fatalf("upgrade answered %q, want %q", reply, binproto.UpgradeReply)
	}
	c, err := binproto.NewSyncConn(nc, bufio.NewReader(nc))
	if err != nil {
		t.Fatal(err)
	}
	listened, err := binproto.Dial(binAddr, binproto.ClientConfig{RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer listened.Close()
	sn := g.Snapshot()
	for _, draining := range []bool{false, true} {
		g.draining.Store(draining)
		want, _ := sn.Locate(1, 9)
		if loc, _, err := c.Locate(1, 9); err != nil || loc.Code != 0 || loc.Disk != want {
			t.Fatalf("draining=%v: upgraded Locate(1,9) = %+v, %v; snapshot says disk %d", draining, loc, err, want)
		}
		if _, _, _, err := listened.Locate(1, 9); draining != errors.Is(err, binproto.ErrDraining) {
			t.Fatalf("draining=%v: the dedicated listener's connection answered %v", draining, err)
		}
	}
	g.draining.Store(false)
	if loc, _, err := c.Locate(5, 0); err != nil || loc.Code != binproto.ErrCodeUnknownObject {
		t.Fatalf("upgraded Locate of an unknown object = %+v, %v", loc, err)
	}
	if total, active := g.reg.NewCounter("bin_connections_total", "").Value(), g.reg.NewGauge("bin_connections_active", "").Value(); total != 2 || active != 2 {
		t.Errorf("bin_connections_total=%d _active=%v, want both connections counted", total, active)
	}

	resp, err := http.Get(hs.URL + "/shard" + binproto.UpgradePath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUpgradeRequired || resp.Header.Get("Upgrade") != binproto.UpgradeToken {
		t.Errorf("GET without the upgrade headers: %s, Upgrade %q", resp.Status, resp.Header.Get("Upgrade"))
	}
	if _, reply := upgrade(binproto.Magic + "\x01"); len(reply) != 0 {
		t.Errorf("a handshake sent without waiting for the 101 was answered %q", reply)
	}

	before := runtime.NumGoroutine()
	g.Close()
	if loc, _, err := c.Locate(1, 9); err == nil {
		t.Errorf("upgraded connection survived the gateway's Close: %+v", loc)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() >= before; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before Close, %d after: the upgraded connection's did not exit", before, runtime.NumGoroutine())
		}
	}
}
