package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scaddar/internal/binproto"
	"scaddar/internal/cluster"
	"scaddar/internal/cm"
	"scaddar/internal/gateway"
	"scaddar/internal/placement"
	iscaddar "scaddar/internal/scaddar"
	"scaddar/internal/workload"
)

// lookupClients is sized for the two cores nproc reports: one closed-loop
// caller per core, each on its own persistent connection.
const lookupClients = 2

// idleRound is the wall round of gateways that only answer lookups.
const idleRound = 50 * time.Millisecond

// batchSize is the LocateBatch frame size of lookup_bin_batch.
const batchSize = 1024

// catalogueShape is the shared lookup catalogue: 64 objects × 2,000 blocks.
func catalogueShape(s spec) (objects, blocks int) {
	if s.Small {
		return 8, 200
	}
	return 64, 2000
}

// metaConfig is the server configuration of the metadata-only workloads.
// simRound sets the per-disk block budget of a round (and so how many
// migration moves fit in one).
func metaConfig(simRound time.Duration) cm.Config {
	cfg := cm.DefaultConfig()
	cfg.BlockBytes = 64 << 10
	cfg.Round = simRound
	return cfg
}

// newLoadedServer ingests objs into a fresh server over the grown array.
func newLoadedServer(cfg cm.Config, objs []workload.Object) (*cm.Server, error) {
	strat, err := newStrategy(growthN0, growthHistory)
	if err != nil {
		return nil, err
	}
	srv, err := cm.NewServer(cfg, strat)
	if err != nil {
		return nil, err
	}
	for _, o := range objs {
		if err := srv.AddObject(o); err != nil {
			return nil, err
		}
	}
	return srv, nil
}

// shadowChain is the benchmark's own compiled REMAP chain over the grown
// history, used to time the scaddar layer as a shadow span.
type shadowChain struct {
	chain *iscaddar.CompiledChain
	mu    sync.Mutex // x0 memoizes per-seed sequences in a plain map
	x0    placement.X0Func
}

// seedOf returns a block's X0 under the lock.
func (sc *shadowChain) seedOf(seed uint64, block int) uint64 {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.x0(placement.BlockRef{Seed: seed, Index: uint64(block)})
}

func newShadowChain() (*shadowChain, error) {
	strat, err := newStrategy(growthN0, growthHistory)
	if err != nil {
		return nil, err
	}
	return &shadowChain{chain: strat.History().Compile(), x0: placement.NewX0Func(sourceFactory)}, nil
}

// readPath parses /v1/objects/{o}/blocks/{i}.
func readPath(p string) (object, block int, ok bool) {
	parts := strings.Split(p, "/")
	if len(parts) != 6 {
		return 0, 0, false
	}
	o, err1 := strconv.Atoi(parts[3])
	b, err2 := strconv.Atoi(parts[5])
	return o, b, err1 == nil && err2 == nil
}

// gatewayHandler serves a gateway, wrapped for tracing when rec is set: the
// handler span gets shadow children for the snapshot lookup and the chain
// walk it contains.
func gatewayHandler(gw *gateway.Gateway, objs []workload.Object, rec *recorder, parent string, byPath bool) (http.Handler, error) {
	if rec == nil {
		return gw.Handler(), nil
	}
	sc, err := newShadowChain()
	if err != nil {
		return nil, err
	}
	return rec.wrap(&spanHandler{
		name: "gateway.http_read", parent: parent, next: gw.Handler(), byPath: byPath,
		after: func(id uint64, path string) {
			o, b, ok := readPath(path)
			if !ok || o >= len(objs) {
				return
			}
			sn := gw.Snapshot()
			rec.shadow("cm.snapshot_locate", id, "gateway.http_read", 16, func() { _, _ = sn.Locate(o, b) })
			x := sc.seedOf(objs[o].Seed, b)
			var d int // not the shared sink: these run on concurrent goroutines
			rec.shadow("scaddar.locate", id, "cm.snapshot_locate", 16, func() { d = sc.chain.Locate(x) })
			runtime.KeepAlive(d)
		},
	}), nil
}

// sink keeps probe results alive (single goroutine only).
var sink int

// rawHTTP is a minimal HTTP/1.1 client over one persistent connection. The
// generator is in the same process as the server on a two-core box, so every
// microsecond the client spends is taken from the system under test;
// net/http's client would cost more than the gateway handler it measures.
type rawHTTP struct {
	c    net.Conn
	br   *bufio.Reader
	out  []byte
	body []byte
}

func dialRaw(addr string) (*rawHTTP, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &rawHTTP{c: c, br: bufio.NewReaderSize(c, 8<<10)}, nil
}

func (h *rawHTTP) close() { _ = h.c.Close() }

// appendRequest writes the request line and Host header; get adds the trace
// header (if any) and the terminating blank line.
func appendRequest(dst []byte, a addr) []byte {
	dst = append(dst, "GET /v1/objects/"...)
	dst = strconv.AppendInt(dst, int64(a.object), 10)
	dst = append(dst, "/blocks/"...)
	dst = strconv.AppendInt(dst, int64(a.block), 10)
	return append(dst, " HTTP/1.1\r\nHost: bench\r\n"...)
}

func headerValue(line []byte, name string) ([]byte, bool) {
	if len(line) <= len(name) || !strings.EqualFold(string(line[:len(name)]), name) {
		return nil, false
	}
	return bytes.TrimSpace(line[len(name):]), true
}

// get sends one pre-built request and reads the reply. shard is the
// router's X-Scaddar-Shard stamp, -1 when absent.
func (h *rawHTTP) get(req []byte, spanID uint64) (status int, body []byte, shard int, err error) {
	h.out = append(h.out[:0], req...)
	if spanID != 0 {
		h.out = append(h.out, traceHeader+": "...)
		h.out = strconv.AppendUint(h.out, spanID, 10)
		h.out = append(h.out, "\r\n"...)
	}
	h.out = append(h.out, "\r\n"...)
	if _, err = h.c.Write(h.out); err != nil {
		return 0, nil, -1, err
	}
	line, err := h.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, -1, err
	}
	if len(line) < 12 {
		return 0, nil, -1, errors.New("short status line")
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, nil, -1, err
	}
	clen, shard := -1, -1
	for {
		if line, err = h.br.ReadSlice('\n'); err != nil {
			return 0, nil, -1, err
		}
		if len(line) <= 2 {
			break
		}
		if v, ok := headerValue(line, "Content-Length:"); ok {
			clen, _ = strconv.Atoi(string(v))
		} else if v, ok := headerValue(line, cluster.ShardHeader+":"); ok {
			shard, _ = strconv.Atoi(string(v))
		}
	}
	if clen < 0 {
		return 0, nil, -1, errors.New("reply without Content-Length")
	}
	if cap(h.body) < clen {
		h.body = make([]byte, clen)
	}
	h.body = h.body[:clen]
	if _, err = io.ReadFull(h.br, h.body); err != nil {
		return 0, nil, -1, err
	}
	return status, h.body, shard, nil
}

func jsonInt(body []byte, key string) (int, bool) {
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0, false
	}
	i += len(key)
	j := i
	for j < len(body) && (body[j] == '-' || (body[j] >= '0' && body[j] <= '9')) {
		j++
	}
	v, err := strconv.Atoi(string(body[i:j]))
	return v, err == nil
}

// readAnswer is the decoded body of GET /v1/objects/{o}/blocks/{i}.
type readAnswer struct {
	object, block, disk int
	healthy             bool
}

func parseRead(body []byte) (readAnswer, bool) {
	var a readAnswer
	var ok1, ok2, ok3 bool
	a.object, ok1 = jsonInt(body, `"object":`)
	a.block, ok2 = jsonInt(body, `"block":`)
	a.disk, ok3 = jsonInt(body, `"disk":`)
	a.healthy = bytes.Contains(body, []byte(`"healthy":true`))
	return a, ok1 && ok2 && ok3
}

// verifyRead checks one HTTP lookup against the oracle.
func verifyRead(t *tally, or *oracle, a addr, status int, body []byte) {
	if status != http.StatusOK {
		t.fail(1, "lookup %d/%d: status %d", a.object, a.block, status)
		return
	}
	got, ok := parseRead(body)
	want := or.want(0, int(a.object), int(a.block))
	if !ok || got.object != int(a.object) || got.block != int(a.block) || got.disk != want || !got.healthy {
		t.fail(1, "lookup %d/%d: got %+v, oracle says disk %d", a.object, a.block, got, want)
		return
	}
	t.ok(1)
}

// httpClient is one closed-loop caller of the HTTP lookup workloads.
type httpClient struct {
	conn  *rawHTTP
	addrs []addr
	reqs  []byte
	off   []uint32
}

// ringLen is how many pre-generated requests a client cycles through; a
// power of two well above what one second consumes.
const ringLen = 1 << 16

func newHTTPClient(addr string, seed uint64, objs []workload.Object, n int) (*httpClient, error) {
	conn, err := dialRaw(addr)
	if err != nil {
		return nil, err
	}
	c := &httpClient{conn: conn, addrs: genAddrs(seed, objs, n), off: make([]uint32, n+1)}
	for i, a := range c.addrs {
		c.reqs = appendRequest(c.reqs, a)
		c.off[i+1] = uint32(len(c.reqs))
	}
	return c, nil
}

// run issues requests back to back until the window ends. wantShard, when
// set, is the router stamp each reply must carry.
func (c *httpClient) run(s spec, id int, w window, sm *samples, t *tally, or *oracle, rec *recorder, wantShard func(object int) int) {
	n := len(c.addrs)
	for i := 0; ; i++ {
		k := i % n
		a := c.addrs[k]
		var spanID uint64
		if rec != nil && i%sampleEvery == 0 {
			spanID = uint64(id)<<40 | uint64(i) + 1
		}
		t0 := time.Now()
		status, body, shard, err := c.conn.get(c.reqs[c.off[k]:c.off[k+1]], spanID)
		t1 := time.Now()
		if err != nil {
			t.fail(1, "lookup %d/%d: %v", a.object, a.block, err)
			return
		}
		if spanID != 0 {
			rec.add("client.request", spanID, "", t0, t1)
		}
		if s.sabotage == "answer" && i%97 == 0 {
			body = bytes.Replace(body, []byte(`"disk":`), []byte(`"disk":1`), 1)
		}
		verifyRead(t, or, a, status, body)
		if wantShard != nil && shard != wantShard(int(a.object)) {
			t.fail(1, "lookup %d/%d: served by shard %d, jump hash names %d", a.object, a.block, shard, wantShard(int(a.object)))
		}
		sm.add(t0, t1, 1)
		if !t1.Before(w.end) {
			return
		}
	}
}

// lookupMetrics fills the lookup latencies: the closed-loop callers' on the
// lookup workloads, the open-loop side reader's on the paced ones.
func lookupMetrics(res *result, m merged) {
	res.Metrics["e2e.lookup_p50_us"] = m.all.P50
	res.Metrics["e2e.lookup_p99_us"] = m.steadyP99()
	res.Dists["lookup_us"] = m.all
}

// runHTTPClients drives the closed-loop HTTP callers over the window and
// fills the lookup metrics.
func runHTTPClients(s spec, res *result, addr string, objs []workload.Object, or *oracle, rec *recorder,
	wantShard func(int) int, setupDone func()) error {
	clients := make([]*httpClient, lookupClients)
	for i := range clients {
		c, err := newHTTPClient(addr, s.Seed*7919+uint64(i), objs, ringLen)
		if err != nil {
			return err
		}
		defer c.conn.close()
		clients[i] = c
	}
	setupDone()
	if s.SetupOnly {
		return nil
	}
	w := newWindow(s)
	var t tally
	sms := make([]*samples, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		sms[i] = newSamples(w, 1<<15)
		wg.Add(1)
		go func(i int, c *httpClient) {
			defer wg.Done()
			c.run(s, i+1, w, sms[i], &t, or, rec, wantShard)
		}(i, c)
	}
	use := measure(w)
	wg.Wait()
	m := mergeSamples(w, sms...)
	lookupMetrics(res, m)
	finish(res, w, &t, float64(m.total), m.rate(w), use)
	return nil
}

// runLookupHTTP is the lookup_http workload: one gateway, metadata only,
// idle rounds, two closed-loop GET callers over loopback.
func runLookupHTTP(s spec, rec *recorder, res *result, setupDone func()) error {
	var cl cleanup
	defer cl.run()
	nObj, nBlk := catalogueShape(s)
	cfg := metaConfig(time.Second)
	objs := makeObjects(s.Seed, nObj, nBlk, cfg.BlockBytes)
	srv, err := newLoadedServer(cfg, objs)
	if err != nil {
		return err
	}
	gw, err := gateway.New(srv, gateway.Config{Factory: sourceFactory, Round: idleRound})
	if err != nil {
		return err
	}
	cl.add(gw.Close)
	h, err := gatewayHandler(gw, objs, rec, "client.request", false)
	if err != nil {
		return err
	}
	addr, stop, err := serveHTTP(h)
	if err != nil {
		return err
	}
	cl.add(stop)
	or, err := buildOracle(objs, growthN0, growthHistory, nil)
	if err != nil {
		return err
	}
	if err := runHTTPClients(s, res, addr, objs, or, rec, nil, setupDone); err != nil {
		return err
	}
	res.Metrics["gateway.round_busy_ms"] = tickMeanMS(gw)
	return nil
}

// routedShards is the width of lookup_routed's cluster.
const routedShards = 3

// bootCluster starts a router over routedShards empty shard gateways, each
// on its own loopback listener, serves the router on another, and loads the
// library through it so every object lands on the shard the jump hash
// names. Shard IDs are handed out in AddShard order, so slot = ID.
func bootCluster(objs []workload.Object, rec *recorder, cl *cleanup) (router *cluster.Router, gws []*gateway.Gateway, addr string, err error) {
	if router, err = cluster.NewRouter(cluster.RouterConfig{ProbeInterval: -1}); err != nil {
		return nil, nil, "", err
	}
	cl.add(router.Close)
	for i := 0; i < routedShards; i++ {
		srv, err := newLoadedServer(metaConfig(time.Second), nil)
		if err != nil {
			return nil, nil, "", err
		}
		gw, err := gateway.New(srv, gateway.Config{Factory: sourceFactory, Round: idleRound})
		if err != nil {
			return nil, nil, "", err
		}
		cl.add(gw.Close)
		gws = append(gws, gw)
		h, err := gatewayHandler(gw, objs, rec, "cluster.proxy_read", true)
		if err != nil {
			return nil, nil, "", err
		}
		shardAddr, stop, err := serveHTTP(h)
		if err != nil {
			return nil, nil, "", err
		}
		cl.add(stop)
		if _, _, err := router.AddShard(context.Background(), "http://"+shardAddr); err != nil {
			return nil, nil, "", err
		}
	}
	front := rec.wrap(&spanHandler{name: "cluster.proxy_read", parent: "client.request", next: router.Handler(), register: true})
	addr, stop, err := serveHTTP(front)
	if err != nil {
		return nil, nil, "", err
	}
	cl.add(stop)
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	for _, o := range objs {
		body := fmt.Sprintf(`{"id":%d,"seed":%d,"blocks":%d,"blockBytes":%d,"bitrateBitsPerSec":%d}`,
			o.ID, o.Seed, o.Blocks, o.BlockBytes, o.BitrateBitsPerSec)
		resp, err := hc.Post("http://"+addr+"/v1/admin/objects", "application/json", strings.NewReader(body))
		if err != nil {
			return nil, nil, "", err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			return nil, nil, "", fmt.Errorf("add object %d through the router: status %d", o.ID, resp.StatusCode)
		}
	}
	return router, gws, addr, nil
}

// runLookupRouted is lookup_routed: the same GETs through a cluster router
// over three shard gateways.
func runLookupRouted(s spec, rec *recorder, res *result, setupDone func()) error {
	var cl cleanup
	defer cl.run()
	nObj, nBlk := catalogueShape(s)
	objs := makeObjects(s.Seed, nObj, nBlk, metaConfig(time.Second).BlockBytes)
	_, gws, addr, err := bootCluster(objs, rec, &cl)
	if err != nil {
		return err
	}
	or, err := buildOracle(objs, growthN0, growthHistory, nil)
	if err != nil {
		return err
	}
	wantShard := func(object int) int { return cluster.RouteSlot(object, routedShards) }
	if err := runHTTPClients(s, res, addr, objs, or, rec, wantShard, setupDone); err != nil {
		return err
	}
	res.Metrics["gateway.round_busy_ms"] = tickMeanMS(gws[0])
	return nil
}

// stampConn notes when the client's encoder handed a frame to the socket and
// when the reply's bytes came back, which splits a traced binproto call into
// encode, wire+server and decode without touching the protocol package.
type stampConn struct {
	net.Conn
	lastWrite, lastRead atomic.Int64
}

func (c *stampConn) Write(p []byte) (int, error) {
	c.lastWrite.Store(time.Now().UnixNano())
	return c.Conn.Write(p)
}

func (c *stampConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.lastRead.Store(time.Now().UnixNano())
	}
	return n, err
}

// binClient is one closed-loop LocateBatch caller.
type binClient struct {
	c       *binproto.Client
	stamp   *stampConn // nil when untraced
	batches [][]cm.BlockAddr
	out     []binproto.Result
}

func dialBin(addr string, traced bool) (*binproto.Client, *stampConn, error) {
	if !traced {
		c, err := binproto.Dial(addr, binproto.ClientConfig{})
		return c, nil, err
	}
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, nil, err
	}
	sc := &stampConn{Conn: nc}
	c, err := binproto.NewClient(sc, binproto.ClientConfig{})
	return c, sc, err
}

// genBatches pre-builds n frames of size addresses each.
func genBatches(seed uint64, objs []workload.Object, n, size int) [][]cm.BlockAddr {
	flat := genAddrs(seed, objs, n*size)
	out := make([][]cm.BlockAddr, n)
	for i := range out {
		b := make([]cm.BlockAddr, size)
		for j := range b {
			a := flat[i*size+j]
			b[j] = cm.BlockAddr{Object: int(a.object), Index: int(a.block)}
		}
		out[i] = b
	}
	return out
}

// verifyBatch checks every entry of one reply against the oracle under the
// epoch the reply carried.
func verifyBatch(t *tally, or *oracle, epoch uint64, batch []cm.BlockAddr, out []binproto.Result) {
	bad, first := 0, -1
	for j, a := range batch {
		r := out[j]
		if r.Code != 0 || !r.Healthy || !or.check(epoch, a.Object, a.Index, r.Disk) {
			if first < 0 {
				first = j
			}
			bad++
		}
	}
	t.ok(len(batch) - bad)
	if bad > 0 {
		a := batch[first]
		t.fail(bad, "batch entry %d/%d at epoch %d: got %+v (%d bad entries in the frame)", a.Object, a.Index, epoch, out[first], bad)
	}
}

// runLookupBinBatch is lookup_bin_batch: two binproto connections, 1,024
// addresses per frame, against the same gateway state as lookup_http.
func runLookupBinBatch(s spec, rec *recorder, res *result, setupDone func()) error {
	var cl cleanup
	defer cl.run()
	nObj, nBlk := catalogueShape(s)
	cfg := metaConfig(time.Second)
	objs := makeObjects(s.Seed, nObj, nBlk, cfg.BlockBytes)
	srv, err := newLoadedServer(cfg, objs)
	if err != nil {
		return err
	}
	gw, err := gateway.New(srv, gateway.Config{Factory: sourceFactory, Round: idleRound})
	if err != nil {
		return err
	}
	cl.add(gw.Close)
	ln, err := listen()
	if err != nil {
		return err
	}
	if _, err := gw.ServeBin(ln); err != nil {
		return err
	}
	or, err := buildOracle(objs, growthN0, growthHistory, nil)
	if err != nil {
		return err
	}
	var sc *shadowChain
	if rec != nil {
		if sc, err = newShadowChain(); err != nil {
			return err
		}
	}
	clients := make([]*binClient, lookupClients)
	for i := range clients {
		c, stamp, err := dialBin(ln.Addr().String(), rec != nil)
		if err != nil {
			return err
		}
		cl.add(func() { _ = c.Close() })
		clients[i] = &binClient{c: c, stamp: stamp, out: make([]binproto.Result, batchSize),
			batches: genBatches(s.Seed*7919+uint64(i), objs, 128, batchSize)}
	}
	info, err := clients[0].c.Epoch()
	if err != nil {
		return err
	}
	or.epoch0 = info.Epoch
	setupDone()
	if s.SetupOnly {
		return nil
	}
	w := newWindow(s)
	var t tally
	sms := make([]*samples, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		sms[i] = newSamples(w, 1<<12)
		wg.Add(1)
		go func(i int, c *binClient) {
			defer wg.Done()
			var (
				disks   = make([]int32, batchSize)
				status  = make([]uint8, batchSize)
				x0s     = make([]uint64, batchSize)
				located = make([]int, batchSize)
				scratch cm.BatchScratch
			)
			for n := 0; ; n++ {
				batch := c.batches[n%len(c.batches)]
				t0 := time.Now()
				epoch, err := c.c.LocateBatch(batch, c.out)
				t1 := time.Now()
				if err != nil {
					t.fail(len(batch), "LocateBatch: %v", err)
					return
				}
				if rec != nil && n%sampleEvery == 0 {
					id := uint64(i+1)<<40 | uint64(n) + 1
					tw, tr := time.Unix(0, c.stamp.lastWrite.Load()), time.Unix(0, c.stamp.lastRead.Load())
					rec.add("client.request", id, "", t0, t1)
					rec.add("binproto.encode", id, "client.request", t0, tw)
					rec.add("wire+server", id, "client.request", tw, tr)
					rec.add("binproto.decode", id, "client.request", tr, t1)
					sn := gw.Snapshot()
					rec.shadow("cm.snapshot_locate_batch", id, "wire+server", 1, func() { sn.LocateBatch(batch, disks, status, &scratch) })
					for j, a := range batch {
						x0s[j] = sc.seedOf(objs[a.Object].Seed, a.Index)
					}
					rec.shadow("scaddar.locate_batch", id, "cm.snapshot_locate_batch", 1, func() { sc.chain.LocateBatch(x0s, located) })
				}
				if s.sabotage == "answer" && n%7 == 0 {
					c.out[n%batchSize].Disk++
				}
				verifyBatch(&t, or, epoch, batch, c.out)
				sms[i].add(t0, t1, len(batch))
				if !t1.Before(w.end) {
					return
				}
			}
		}(i, c)
	}
	use := measure(w)
	wg.Wait()
	m := mergeSamples(w, sms...)
	lookupMetrics(res, m)
	finish(res, w, &t, float64(m.total), m.rate(w), use)
	res.Metrics["gateway.round_busy_ms"] = tickMeanMS(gw)
	return nil
}
