package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"scaddar/internal/binproto"
	"scaddar/internal/bufpool"
	"scaddar/internal/cluster"
	"scaddar/internal/cm"
	"scaddar/internal/dataplane"
	"scaddar/internal/disk"
	"scaddar/internal/gateway"
	"scaddar/internal/obs"
	"scaddar/internal/placement"
	"scaddar/internal/reorg"
	"scaddar/internal/repl"
	iscaddar "scaddar/internal/scaddar"
	"scaddar/internal/store"
)

// The probes time one call of a layer's public function, at fixed iteration
// counts, against fixtures built the way the workloads build their state:
// the j = 12 array and 64 × 2,000 catalogue for the metadata layers, a
// small 8-disk segment-store array with 64 paused-open sessions for the
// byte-carrying ones. They do not depend on the workload, so a per-layer
// number reads the same under every workload's traced run; what differs per
// workload are the counts and the spans.

// perCall runs fn in `batches` batches of `iters` calls and returns the
// median batch's time per call, in nanoseconds.
func perCall(iters, batches int, fn func()) float64 {
	per := make([]float64, batches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(iters)
	}
	return median(per)
}

// allocsPer is mallocs and bytes per call over n calls, from the runtime's
// own counters (the fixtures are idle while it runs).
func allocsPer(n int, fn func()) (allocs, bytesPer float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
}

// probeSet accumulates per-layer metrics.
type probeSet map[string]float64

// runProbes measures every per-layer timing. dir is scratch space.
func runProbes(s spec, dir string) (probeSet, error) {
	p := probeSet{}
	for _, f := range []func(spec, string, probeSet) error{
		probeScaddar, probeControl, probeFrontEnds, probeBytes, probeJournal, probeBaselines,
	} {
		if err := f(s, dir, p); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// probeScaddar covers the REMAP chain and the strategy over it.
func probeScaddar(s spec, _ string, p probeSet) error {
	strat, err := newStrategy(growthN0, growthHistory)
	if err != nil {
		return err
	}
	hist := strat.History()
	chain := hist.Compile()
	x0 := placement.NewX0Func(sourceFactory)
	xs := make([]uint64, batchSize)
	refs := make([]placement.BlockRef, batchSize)
	for i := range xs {
		refs[i] = placement.BlockRef{Seed: s.Seed + 1, Index: uint64(i)}
		xs[i] = x0(refs[i])
	}
	out := make([]int, batchSize)
	i := 0
	p["scaddar.locate_ns"] = perCall(20000, 9, func() { sink = hist.Locate(xs[i%batchSize]); i++ })
	p["scaddar.locate_batch_ns_per_block"] = perCall(200, 9, func() { chain.LocateBatch(xs, out) }) / batchSize
	p["placement.disk_ns"] = perCall(20000, 9, func() { sink = strat.Disk(refs[i%batchSize]); i++ })
	p["scaddar.compile_us"] = perCall(200, 9, func() {
		h := hist.Clone()
		_, _ = h.Add(1)
		sink = h.Compile().N()
	}) / 1e3
	p["scaddar.history_codec_us"] = perCall(500, 9, func() {
		data, _ := hist.MarshalBinary()
		var h iscaddar.History
		_ = h.UnmarshalBinary(data)
	}) / 1e3
	return nil
}

// probeControl covers planning, snapshot publication and the idle round on
// the metadata catalogue.
func probeControl(s spec, _ string, p probeSet) error {
	nObj, nBlk := catalogueShape(s)
	cfg := metaConfig(1200 * time.Millisecond)
	objs := makeObjects(s.Seed, nObj, nBlk, cfg.BlockBytes)
	var blocks []placement.BlockRef
	for _, o := range objs {
		for b := 0; b < o.Blocks; b++ {
			blocks = append(blocks, placement.BlockRef{Seed: o.Seed, Index: uint64(b)})
		}
	}
	plan := func(op scaleOp) float64 {
		return perCall(1, 5, func() {
			strat, _ := newStrategy(growthN0, growthHistory)
			if op.add > 0 {
				_, _ = reorg.PlanAdd(strat, blocks, op.add)
			} else {
				_, _ = reorg.PlanRemove(strat, blocks, op.remove...)
			}
		}) / 1e6
	}
	p["reorg.plan_add_ms"] = plan(scaleOp{add: 2})
	p["reorg.plan_remove_ms"] = plan(scaleOp{remove: []int{1, 6}})

	srv, err := newLoadedServer(cfg, objs)
	if err != nil {
		return err
	}
	p["cm.tick_idle_us"] = perCall(200, 9, func() { _ = srv.Tick() }) / 1e3
	sn, err := srv.BuildSnapshot(sourceFactory)
	if err != nil {
		return err
	}
	addrs := genBatches(s.Seed, objs, 1, batchSize)[0]
	disks, status := make([]int32, batchSize), make([]uint8, batchSize)
	var scratch cm.BatchScratch
	i := 0
	p["cm.snapshot_locate_ns"] = perCall(20000, 9, func() {
		a := addrs[i%batchSize]
		sink, _ = sn.Locate(a.Object, a.Index)
		i++
	})
	p["cm.snapshot_locate_batch_ns_per_block"] = perCall(200, 9, func() { sn.LocateBatch(addrs, disks, status, &scratch) }) / batchSize
	t0 := time.Now()
	if _, err := srv.ScaleUp(2); err != nil {
		return err
	}
	p["cm.scale_up_ms"] = float64(time.Since(t0).Microseconds()) / 1e3
	// With the scale-up accepted and not yet ticked the server is in the
	// state in which a gateway republishes every round.
	build := func() { _, _ = srv.BuildSnapshot(sourceFactory) }
	p["cm.build_snapshot_us"] = perCall(5, 7, build) / 1e3
	p["cm.build_snapshot_allocs"], p["cm.build_snapshot_bytes"] = allocsPer(5, build)
	return nil
}

// probeFrontEnds covers the gateway handler, the mailbox, the binary
// protocol and the cluster router over the metadata catalogue.
func probeFrontEnds(s spec, _ string, p probeSet) error {
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
	flat := genAddrs(s.Seed, objs, 1024)
	reqs := make([]*http.Request, len(flat))
	for i, a := range flat {
		reqs[i] = httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/objects/%d/blocks/%d", a.object, a.block), nil)
	}
	h := gw.Handler()
	i := 0
	read := func(h http.Handler) func() {
		return func() { h.ServeHTTP(httptest.NewRecorder(), reqs[i%len(reqs)]); i++ }
	}
	p["gateway.http_read_us"] = perCall(2000, 9, read(h)) / 1e3
	p["gateway.http_read_allocs"], _ = allocsPer(2000, read(h))
	ctx := context.Background()
	p["gateway.exec_rtt_us"] = perCall(200, 9, func() {
		_, _ = gw.Exec(ctx, func(*cm.Server) (any, error) { return nil, nil })
	}) / 1e3
	scrapeReq := httptest.NewRequest(http.MethodGet, "/v1/metrics", nil)
	p["gateway.metrics_scrape_ms"] = perCall(20, 7, func() { h.ServeHTTP(httptest.NewRecorder(), scrapeReq) }) / 1e6
	hist := obs.MustNewHistogram(obs.LatencyBuckets())
	p["obs.observe_ns"] = perCall(100000, 9, func() { hist.Observe(123e-6) })
	p["obs.write_text_us"] = perCall(20, 7, func() { _ = gw.Registry().WritePrometheus(io.Discard) }) / 1e3

	// The binary protocol over a real loopback connection, one caller.
	ln, err := listen()
	if err != nil {
		return err
	}
	if _, err := gw.ServeBin(ln); err != nil {
		return err
	}
	bc, stamp, err := dialBin(ln.Addr().String(), true)
	if err != nil {
		return err
	}
	cl.add(func() { _ = bc.Close() })
	batch := genBatches(s.Seed, objs, 1, batchSize)[0]
	out := make([]binproto.Result, batchSize)
	var enc, dec, rtt []float64
	for n := 0; n < 400; n++ {
		t0 := time.Now()
		if _, err := bc.LocateBatch(batch, out); err != nil {
			return err
		}
		t1 := time.Now()
		enc = append(enc, float64(stamp.lastWrite.Load()-t0.UnixNano()))
		dec = append(dec, float64(t1.UnixNano()-stamp.lastRead.Load()))
		rtt = append(rtt, float64(t1.Sub(t0).Nanoseconds())/1e3)
	}
	p["binproto.encode_batch_ns"] = median(enc)
	p["binproto.decode_batch_ns"] = median(dec)
	p["binproto.batch_rtt_us"] = median(rtt)
	single := func() { sink, _, _, _ = bc.Locate(batch[i%batchSize].Object, batch[i%batchSize].Index); i++ }
	p["binproto.single_rtt_us"] = perCall(500, 9, single) / 1e3
	p["binproto.single_allocs"], _ = allocsPer(2000, single)
	p["binproto.ping_rtt_us"] = perCall(500, 9, func() { _ = bc.Ping() }) / 1e3

	// The router over three loopback shards, booted as lookup_routed boots it.
	router, _, _, err := bootCluster(objs, nil, &cl)
	if err != nil {
		return err
	}
	rh := router.Handler()
	p["cluster.route_ns"] = perCall(100000, 9, func() { sink = cluster.RouteSlot(i, routedShards); i++ })
	p["cluster.proxy_read_us"] = perCall(500, 9, read(rh)) / 1e3
	p["cluster.proxy_read_allocs"], _ = allocsPer(500, read(rh))
	statusReq := httptest.NewRequest(http.MethodGet, "/v1/status", nil)
	p["cluster.status_fanout_ms"] = perCall(20, 7, func() { rh.ServeHTTP(httptest.NewRecorder(), statusReq) }) / 1e6
	return nil
}

// countingSink is a delivery sink that wants every payload and releases it.
type countingSink struct{ chunks int }

func (*countingSink) WantsPayload(int) bool { return true }
func (c *countingSink) Deliver(_, _ int, _ int, pl bufpool.Payload) bool {
	c.chunks++
	pl.Release()
	return false
}
func (*countingSink) StreamClosed(int, cm.StreamState) {}

// probeBytes covers the layers that carry payload: segment stores, the
// buffer pool, stream framing, session buffers, the locator feed and a
// round with 64 sessions.
func probeBytes(s spec, dir string, p probeSet) error {
	var cl cleanup
	defer cl.run()
	const blockBytes = 64 << 10
	cfg := cm.DefaultConfig()
	cfg.BlockBytes = blockBytes
	cfg.Round = 200 * time.Millisecond
	cfg.Redundancy = cm.RedundancyMirror
	objs := makeObjects(s.Seed, 4, 64, blockBytes)
	strat, err := newStrategy(8, nil)
	if err != nil {
		return err
	}
	srv, err := cm.NewServer(cfg, strat)
	if err != nil {
		return err
	}
	for _, o := range objs {
		if err := srv.AddObject(o); err != nil {
			return err
		}
	}
	mgr, err := dataplane.NewManager(filepath.Join(dir, "probe-payload"), dataplane.Options{})
	if err != nil {
		return err
	}
	cl.add(func() { _ = mgr.Close() })
	if err := srv.AttachPayloads(mgr.Factory(), benchContent); err != nil {
		return err
	}
	d0, err := srv.Array().Disk(0)
	if err != nil {
		return err
	}
	ps := mgr.Store(d0.ID())
	ids := ps.Blocks()
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	i := 0
	batch := ids[:8]
	p["dataplane.read_blocks_us_per_block"] = perCall(200, 9, func() { readBatch(ps, batch) }) / 8 / 1e3
	p["dataplane.get_us"] = perCall(500, 9, func() { _, _ = ps.Get(ids[i%len(ids)]); i++ }) / 1e3
	payload := benchContent(1, 2, blockBytes)
	// Puts, and the compaction that cleans up after overwrites, run on a
	// store of their own with 1 MiB segments, so sealed segments with dead
	// records exist: 64 blocks written, half of them written again.
	cs0, err := dataplane.OpenStore(filepath.Join(dir, "probe-compact"), dataplane.Options{SegmentMaxBytes: 1 << 20})
	if err != nil {
		return err
	}
	cl.add(func() { _ = cs0.Close() })
	n := 0
	p["dataplane.put_us"] = perCall(32, 3, func() {
		id := n
		if n >= 64 {
			id = (n - 64) * 2 // the third batch overwrites the even blocks
		}
		_ = cs0.Put(disk.BlockID(id), payload)
		n++
	}) / 1e3
	t0 := time.Now()
	if err := cs0.Compact(); err != nil {
		return err
	}
	p["dataplane.compact_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6

	p["bufpool.get_release_ns"] = perCall(100000, 9, func() { bufpool.Get(blockBytes).Release() })
	frame := dataplane.AppendDataFrame(nil, 7, payload)
	buf := make([]byte, 0, len(frame))
	p["dataplane.frame_append_ns"] = perCall(2000, 9, func() { buf = dataplane.AppendDataFrame(buf[:0], 7, payload) })
	rd := bytes.NewReader(frame)
	br := bufio.NewReaderSize(rd, 128<<10)
	scratch := make([]byte, blockBytes+64)
	p["dataplane.frame_read_ns"] = perCall(2000, 9, func() {
		rd.Reset(frame)
		br.Reset(rd)
		_, _ = dataplane.ReadFrameInto(br, scratch)
	})
	sess := dataplane.NewSession(1, 0, blockBytes, dataplane.SessionBufferConfig{})
	p["dataplane.session_offer_ns"] = perCall(100000, 9, func() {
		sess.Offer(dataplane.Chunk{Index: i})
		<-sess.Chunks()
		i++
	})
	feed := dataplane.NewFeed(1024)
	moves := make([]dataplane.MovedBlock, 40)
	p["dataplane.feed_publish_us"] = perCall(2000, 9, func() { feed.Publish(dataplane.Delta{Kind: dataplane.DeltaMoves, Moves: moves}) }) / 1e3

	// A gateway over the same server gives the wire-format locator snapshot
	// a streaming client resolves blocks from, and the session-open path.
	gw, err := gateway.New(srv, gateway.Config{Factory: sourceFactory, Round: time.Hour})
	if err != nil {
		return err
	}
	cl.add(gw.Close)
	loc := dataplane.NewClientLocator(sourceFactory)
	if err := loc.ApplySnapshot(gw.LocatorSnapshotWire()); err != nil {
		return err
	}
	p["dataplane.client_locate_ns"] = perCall(20000, 9, func() { sink, _ = loc.Locate(i%len(objs), i%64); i++ })
	h := gw.Handler()
	p["gateway.session_open_us"] = perCall(16, 4, func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/sessions", strings.NewReader(fmt.Sprintf(`{"object":%d,"paused":true}`, i%len(objs))))
		h.ServeHTTP(httptest.NewRecorder(), req)
		i++
	}) / 1e3
	// The 64 sessions just opened are paused; resume them under a sink that
	// takes every payload and time whole rounds from inside the owner
	// goroutine. The gateway's own ticker is an hour away, so these Ticks are
	// the only rounds; each seeks the streams back so none plays out.
	cs := &countingSink{}
	ctx := context.Background()
	var tickNS, tickAllocs []float64
	for n := 0; n < 40; n++ {
		if _, err := gw.Exec(ctx, func(sv *cm.Server) (any, error) {
			if n == 0 {
				sv.SetDeliverySink(cs)
			}
			for id := 0; id < 64; id++ {
				if err := sv.ResumeStream(id); err != nil {
					return nil, err
				}
				if err := sv.SeekStream(id, (id*7+n)%32); err != nil {
					return nil, err
				}
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			err := sv.Tick()
			tickNS = append(tickNS, float64(time.Since(t0).Nanoseconds()))
			runtime.ReadMemStats(&m1)
			tickAllocs = append(tickAllocs, float64(m1.Mallocs-m0.Mallocs))
			return nil, err
		}); err != nil {
			return err
		}
	}
	p["cm.tick_ms"] = median(tickNS) / 1e6
	p["cm.tick_allocs"] = median(tickAllocs)
	if cs.chunks == 0 {
		return fmt.Errorf("probe: 64-session rounds delivered nothing")
	}
	return nil
}

// probeJournal covers the store and replication over a small durable array.
func probeJournal(s spec, dir string, p probeSet) error {
	var cl cleanup
	defer cl.run()
	cfg := metaConfig(1200 * time.Millisecond)
	objs := makeObjects(s.Seed, 8, 500, cfg.BlockBytes)
	srv, err := newLoadedServer(cfg, objs)
	if err != nil {
		return err
	}
	// Appends and commits are timed on a journal of their own, fed one
	// round's worth of migration moves per event; nothing recovers from it.
	adir := filepath.Join(dir, "probe-append")
	ast, err := store.Open(store.Config{Dir: adir, SyncEvery: 1 << 30})
	if err != nil {
		return err
	}
	cl.add(func() { _ = ast.Close() })
	if err := ast.Bootstrap(srv); err != nil {
		return err
	}
	srv.SetEventSink(nil)
	ev := cm.Event{Kind: cm.EventBlocksMigrated, Moves: make([]cm.BlockPos, 264)}
	for i := range ev.Moves {
		ev.Moves[i] = cm.BlockPos{Object: i % len(objs), Index: uint64(i)}
	}
	p["store.append_us"] = perCall(200, 9, func() { _, _ = ast.Append(ev) }) / 1e3
	var syncNS []float64
	for n := 0; n < 40; n++ {
		_, _ = ast.Append(ev)
		t0 := time.Now()
		if err := ast.Sync(); err != nil {
			return err
		}
		syncNS = append(syncNS, float64(time.Since(t0).Nanoseconds()))
	}
	p["store.sync_us"] = median(syncNS) / 1e3

	// A real migration fills the journal that recovery, the checkpoint and
	// the follower read: every Tick journals one batch of moves.
	jdir := filepath.Join(dir, "probe-journal")
	st, err := store.Open(store.Config{Dir: jdir})
	if err != nil {
		return err
	}
	cl.add(func() { _ = st.Close() })
	if err := st.Bootstrap(srv); err != nil {
		return err
	}
	if _, err := srv.ScaleUp(2); err != nil {
		return err
	}
	for srv.Reorganizing() {
		if err := srv.Tick(); err != nil {
			return err
		}
	}
	if err := srv.FinishReorganization(); err != nil {
		return err
	}
	if err := st.Sync(); err != nil {
		return err
	}

	// Recovery of the directory as it lies, before any checkpoint folds the
	// events away.
	copyTo := filepath.Join(dir, "probe-journal-copy")
	if err := copyDir(jdir, copyTo); err != nil {
		return err
	}
	t0 := time.Now()
	st2, err := store.Open(store.Config{Dir: copyTo})
	if err != nil {
		return err
	}
	_, info, err := st2.Recover(placement.NewX0Func(sourceFactory))
	took := time.Since(t0)
	_ = st2.Close()
	if err != nil {
		return err
	}
	p["store.open_recover_ms"] = float64(took.Microseconds()) / 1e3
	p["store.replay_us_per_event"] = float64(took.Microseconds()) / float64(max(info.ReplayedEvents, 1))

	t0 = time.Now()
	if _, err := st.Checkpoint(srv); err != nil {
		return err
	}
	p["store.checkpoint_ms"] = float64(time.Since(t0).Microseconds()) / 1e3

	ldr, err := repl.NewLeader(repl.LeaderConfig{Store: st, Registry: obs.NewRegistry()})
	if err != nil {
		return err
	}
	rln, err := listen()
	if err != nil {
		return err
	}
	ldr.Serve(rln)
	cl.add(func() { _ = ldr.Close() })
	t0 = time.Now()
	fol, err := repl.StartFollower(repl.FollowerConfig{Addr: rln.Addr().String(),
		X0: placement.NewX0Func(sourceFactory), Factory: sourceFactory, Registry: obs.NewRegistry()})
	if err != nil {
		return err
	}
	cl.add(func() { _ = fol.Close() })
	if err := awaitFollower(fol, st, 5*time.Second); err != nil {
		return err
	}
	p["repl.bootstrap_ms"] = float64(time.Since(t0).Microseconds()) / 1e3
	i := 0
	p["repl.follower_locate_ns"] = perCall(20000, 9, func() { sink, _, _ = fol.Locate(i%len(objs), i%500); i++ })
	return nil
}

// pairedRTT is the median round trip of two callers running at once, as
// the lookup workloads' two clients do: a lone caller on an idle process
// pays a wake-up per request that callers on a busy one do not.
func pairedRTT(n int, mk func() (call func(), closer func(), err error)) (float64, error) {
	var all [2][]float64
	errs := make(chan error, 2)
	for c := 0; c < 2; c++ {
		go func(c int) {
			call, closer, err := mk()
			if err != nil {
				errs <- err
				return
			}
			defer closer()
			for i := 0; i < n; i++ {
				t0 := time.Now()
				call()
				all[c] = append(all[c], float64(time.Since(t0).Nanoseconds())/1e3)
			}
			errs <- nil
		}(c)
	}
	for c := 0; c < 2; c++ {
		if err := <-errs; err != nil {
			return 0, err
		}
	}
	return median(append(all[0], all[1]...)), nil
}

// probeBaselines measures what is not the system's: a bare loopback echo of
// the same request and reply sizes, and the generator's own work per
// operation, so both can be subtracted.
func probeBaselines(s spec, _ string, p probeSet) error {
	var cl cleanup
	defer cl.run()
	// TCP: an 8 KiB request and a 5 KiB reply, the sizes of a 1,024-entry
	// LocateBatch frame and its answer.
	ln, err := listen()
	if err != nil {
		return err
	}
	cl.add(func() { _ = ln.Close() })
	const reqLen, replyLen = 8 << 10, 5 << 10
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				in, out := make([]byte, reqLen), make([]byte, replyLen)
				for {
					if _, err := io.ReadFull(c, in); err != nil {
						return
					}
					if _, err := c.Write(out); err != nil {
						return
					}
				}
			}()
		}
	}()
	if p["baseline.tcp_echo_rtt_us"], err = pairedRTT(3000, func() (func(), func(), error) {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, nil, err
		}
		out, in := make([]byte, reqLen), make([]byte, replyLen)
		return func() {
			_, _ = c.Write(out)
			_, _ = io.ReadFull(c, in)
		}, func() { _ = c.Close() }, nil
	}); err != nil {
		return err
	}

	// HTTP: the same GETs against a handler that writes a canned reply of the
	// gateway's size, through the same raw client.
	nObj, nBlk := catalogueShape(s)
	objs := makeObjects(s.Seed, nObj, nBlk, 64<<10)
	or, err := buildOracle(objs, growthN0, growthHistory, nil)
	if err != nil {
		return err
	}
	at := addr{object: 1, block: 23}
	canned := []byte(fmt.Sprintf(`{"object":%d,"block":%d,"disk":%d,"healthy":true,"reorganizing":false}`+"\n",
		at.object, at.block, or.want(0, int(at.object), int(at.block))))
	addr, stop, err := serveHTTP(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(canned)
	}))
	if err != nil {
		return err
	}
	cl.add(stop)
	if p["baseline.http_echo_rtt_us"], err = pairedRTT(5000, func() (func(), func(), error) {
		hc, err := newHTTPClient(addr, s.Seed, objs, 1024)
		if err != nil {
			return nil, nil, err
		}
		i := 0
		return func() {
			k := i % len(hc.addrs)
			_, _, _, _ = hc.conn.get(hc.reqs[hc.off[k]:hc.off[k+1]], 0)
			i++
		}, hc.conn.close, nil
	}); err != nil {
		return err
	}

	// The generator's own share: decode and verify one canned reply.
	var t tally
	p["baseline.client_us_per_op"] = perCall(20000, 9, func() { verifyRead(&t, or, at, http.StatusOK, canned) }) / 1e3
	if t.failed.Load() > 0 {
		return fmt.Errorf("probe: the canned reply failed verification")
	}
	return nil
}
