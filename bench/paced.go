package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scaddar/internal/binproto"
	"scaddar/internal/bufpool"
	"scaddar/internal/cm"
	"scaddar/internal/dataplane"
	"scaddar/internal/disk"
	"scaddar/internal/gateway"
	"scaddar/internal/obs"
	"scaddar/internal/placement"
	"scaddar/internal/repl"
	"scaddar/internal/store"
	"scaddar/internal/workload"
)

// readerBatch is the frame size of the open-loop side reader that keeps
// asking where blocks are while the array streams or reorganizes.
const readerBatch = 64

// reader is an open-loop binproto caller: frame k is due at start + k/rate
// whatever happened to frame k−1, and its latency is timed from when it was
// due, so a stall is charged to every request it delayed.
type reader struct {
	c       *binproto.Client
	batches [][]cm.BlockAddr
	out     []binproto.Result
	rate    int
	sm      *samples
	late    []float64 // µs the generator sent after the due time
}

func newReader(addr string, seed uint64, objs []workload.Object, rate int, w window) (*reader, error) {
	c, err := binproto.Dial(addr, binproto.ClientConfig{RequestTimeout: 5 * time.Second})
	if err != nil {
		return nil, err
	}
	return &reader{c: c, rate: rate, out: make([]binproto.Result, readerBatch), sm: newSamples(w, rate+16),
		batches: genBatches(seed^0x5eed, objs, 256, readerBatch)}, nil
}

// run sends frames back to back until start — a warm-up that leaves the
// process idle warms nothing: this host wakes a halted vCPU slowly, and a
// workload that starts from an idle second runs its first second at half
// speed or not, depending on what ran before it — and on schedule from start
// until end.
func (r *reader) run(s spec, start, end time.Time, t *tally, or *oracle) {
	for time.Now().Before(start) {
		if _, err := r.c.LocateBatch(r.batches[0], r.out); err != nil {
			t.fail(readerBatch, "reader LocateBatch: %v", err)
			return
		}
	}
	interval := time.Second / time.Duration(r.rate)
	var lastEpoch uint64
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if !due.Before(end) {
			return
		}
		sleepUntil(due)
		sent := time.Now()
		batch := r.batches[k%len(r.batches)]
		epoch, err := r.c.LocateBatch(batch, r.out)
		t1 := time.Now()
		if err != nil {
			t.fail(len(batch), "reader LocateBatch: %v", err)
			return
		}
		if epoch < lastEpoch {
			t.fail(1, "reader: epoch went back from %d to %d", lastEpoch, epoch)
		}
		lastEpoch = epoch
		if s.sabotage == "answer" && k%7 == 0 {
			r.out[k%readerBatch].Disk += 3
		}
		verifyBatch(t, or, epoch, batch, r.out)
		r.sm.add(due, t1, len(batch))
		if r.sm.w.sliceOf(t1) >= 0 {
			r.late = append(r.late, float64(sent.Sub(due).Microseconds()))
		}
	}
}

// postScale sends one scaling operation over HTTP and returns the accepted
// plan's move count.
func postScale(hc *http.Client, base string, op scaleOp) (moves int, err error) {
	var body []byte
	if op.add > 0 {
		body, _ = json.Marshal(map[string]int{"add": op.add})
	} else {
		body, _ = json.Marshal(map[string][]int{"remove": op.remove})
	}
	resp, err := hc.Post(base+"/v1/scale", "application/json", strings.NewReader(string(body)))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		return 0, fmt.Errorf("scale %v: status %d: %s", op, resp.StatusCode, msg)
	}
	var out struct {
		Moves int `json:"moves"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, err
	}
	return out.Moves, nil
}

// drained is one awaited scaling operation.
type drained struct {
	moves, rounds int
	took          time.Duration
}

// scaleAndDrain issues op and waits until the gateway reports the
// reorganization finished. The wait polls the published status in process:
// it is the measurement, not part of the load.
func scaleAndDrain(hc *http.Client, base string, gw *gateway.Gateway, op scaleOp, giveUp time.Time) (drained, error) {
	before := gw.Status()
	moves, err := postScale(hc, base, op)
	if err != nil {
		return drained{}, err
	}
	accepted := time.Now()
	for {
		st := gw.Status()
		// The operation is over when the migration drained and a finished
		// round has detached (or adopted) the disks.
		if !st.Reorganizing && st.Disks != before.Disks && st.MigrationRemaining == 0 {
			return drained{moves: moves, rounds: st.Rounds - before.Rounds, took: time.Since(accepted)}, nil
		}
		if time.Now().After(giveUp) {
			return drained{}, fmt.Errorf("scale %v: not drained after %v (%d moves left)", op, time.Since(accepted), st.MigrationRemaining)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// tracedRound drives one extra round through the gateway's mailbox with a
// span around the phases the gateway's own round runs on the server — Tick
// (segment reads, CRC, delivery and migration moves are inside it and cannot
// be told apart from outside) and, while a migration drains, the republish
// of both read-path views. (The journal commit is
// not repeated here: Exec commits after the closure anyway, and its cost is
// read from the store's own fsync histogram over the untraced window.) It is how a paced workload gets
// per-round spans from the benchmark's own files: the gateway's ticker
// cannot be wrapped, but Exec runs this closure on the same owner goroutine
// against the same live state.
func tracedRound(gw *gateway.Gateway, rec *recorder, id uint64) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_, _ = gw.Exec(ctx, func(s *cm.Server) (any, error) {
		// This Tick must not be the one that drains a migration: the gateway
		// clears a drained migration in its own round only, and the snapshot
		// Exec republishes in between would carry the draining epoch over the
		// post-operation numbering. A round moves at most every disk's block
		// budget, so with more than that left it cannot finish here.
		if cfg := s.Config(); s.Reorganizing() &&
			s.MigrationRemaining() <= cfg.Profile.BlocksPerRound(cfg.Round, cfg.BlockBytes)*s.N() {
			return nil, nil
		}
		t0 := time.Now()
		err := s.Tick()
		t1 := time.Now()
		rec.add("cm.tick", id, "gateway.round", t0, t1)
		if s.Reorganizing() {
			// While a migration drains the gateway republishes both read-path
			// views every round: the locator snapshot and the wire-format state
			// streaming clients follow.
			rec.shadow("cm.build_snapshot", id, "gateway.round", 1, func() { _, _ = s.BuildSnapshot(sourceFactory) })
			rec.shadow("cm.locator_export", id, "gateway.round", 1, func() { _, _ = s.LocatorStateExport() })
		}
		end := time.Now()
		rec.add("gateway.round", id, "", t0, end)
		return nil, err
	})
}

// readBatch reads the given blocks of a segment store in one batched call
// and releases the buffers.
func readBatch(ps *dataplane.Store, ids []disk.BlockID) {
	reqs := make([]disk.BlockRead, len(ids))
	for i, id := range ids {
		reqs[i].Block = id
	}
	ps.ReadBlocks(reqs)
	for i := range reqs {
		reqs[i].Payload.Release()
	}
}

// traceRounds drives one traced round after every `every` rounds of the
// gateway's own, until stop closes. Sampling by round count, not by time,
// keeps the long rounds of a drain from being over-represented against the
// mean round the budget is laid against.
func traceRounds(rec *recorder, every int, round time.Duration, stop <-chan struct{}, gw *gateway.Gateway) {
	next := gw.Rounds() + every
	for id := uint64(1); ; {
		select {
		case <-stop:
			return
		case <-time.After(round / 2):
		}
		if gw.Rounds() >= next {
			// Mid-way to the next tick, when the last round's chunks have
			// been flushed and the owner goroutine would be idle.
			time.Sleep(round / 2)
			tracedRound(gw, rec, id)
			id++
			next = gw.Rounds() + every
		}
	}
}

// streamShape is stream_scaleup's catalogue: 16 objects × 256 blocks ×
// 64 KiB on 8 disks, drained by 64 sessions at 50 ms rounds.
type streamShape struct {
	objects, blocks, sessions int
	blockBytes                int64
	round                     time.Duration
}

func streamShapeOf(s spec) streamShape {
	if s.Small {
		return streamShape{objects: 4, blocks: 48, sessions: 8, blockBytes: 4 << 10, round: 10 * time.Millisecond}
	}
	return streamShape{objects: 16, blocks: 256, sessions: 64, blockBytes: 64 << 10, round: 50 * time.Millisecond}
}

// sessionClient drains one playback session after another over its own
// connection: a session is a connection.
type sessionClient struct {
	hc      *http.Client
	base    string
	crcs    [][]uint32
	z       *zipf
	current atomic.Int64 // open session ID, −1 between sessions
	chunks  int64        // every verified chunk, window or not
	gapsMS  [][]float64  // per window slice
	bytes   []int64      // verified payload bytes per window slice
	// first and last are the arrivals of the first and last chunk counted in
	// the window: the span the client's own delivery rate is taken over.
	first, last time.Time
}

// open admits a paused session at position pos.
func (c *sessionClient) open(object, pos int) (int, error) {
	body := fmt.Sprintf(`{"object":%d,"position":%d,"paused":true}`, object, pos)
	resp, err := c.hc.Post(c.base+"/v1/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(resp.Body)
		return 0, fmt.Errorf("open session on object %d: status %d: %s", object, resp.StatusCode, msg)
	}
	var out struct {
		Session int `json:"session"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out.Session, err
}

// play attaches to a session and verifies frames until its end frame.
func (c *sessionClient) play(s spec, w window, t *tally, id, object, pos int, scratch []byte) error {
	resp, err := c.hc.Get(fmt.Sprintf("%s/v1/sessions/%d/stream", c.base, id))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("attach session %d: status %d", id, resp.StatusCode)
	}
	br := bufio.NewReaderSize(resp.Body, 128<<10)
	var prev time.Time
	next := pos
	for n := 0; ; n++ {
		f, err := dataplane.ReadFrameInto(br, scratch)
		if err != nil {
			return fmt.Errorf("session %d: %w", id, err)
		}
		now := time.Now()
		if f.End {
			_, _ = io.Copy(io.Discard, br)
			return nil
		}
		if s.sabotage == "drop" && n%11 == 5 {
			continue
		}
		if s.sabotage == "payload" && n%11 == 5 {
			f.Data[len(f.Data)/2] ^= 0x40
		}
		if f.Index != next {
			// Chunks the pacer skipped for this session: missed operations.
			if f.Index > next {
				t.fail(f.Index-next, "session %d: chunk %d arrived where %d was due", id, f.Index, next)
			} else {
				t.fail(1, "session %d: chunk %d arrived again", id, f.Index)
			}
		}
		next = f.Index + 1
		if f.Index >= len(c.crcs[object]) || crc32.Checksum(f.Data, castagnoli) != c.crcs[object][f.Index] {
			t.fail(1, "session %d: chunk %d/%d does not carry the oracle bytes", id, object, f.Index)
		} else {
			t.ok(1)
			c.chunks++
			if i := w.sliceOf(now); i >= 0 {
				c.bytes[i] += int64(len(f.Data))
				if c.first.IsZero() {
					c.first = now
				}
				c.last = now
				if !prev.IsZero() {
					c.gapsMS[i] = append(c.gapsMS[i], float64(now.Sub(prev).Microseconds())/1e3)
				}
			}
		}
		prev = now
	}
}

// run opens and drains sessions until the window ends; the first session
// starts mid-object so completions and re-opens spread over the window.
func (c *sessionClient) run(s spec, w window, t *tally, firstPos int, blockBytes int64) {
	scratch := make([]byte, blockBytes+64)
	pos := firstPos
	for time.Now().Before(w.end) {
		object := c.z.draw()
		id, err := c.open(object, pos)
		if err != nil {
			t.fail(1, "%v", err)
			return
		}
		c.current.Store(int64(id))
		err = c.play(s, w, t, id, object, pos, scratch)
		c.current.Store(-1)
		if err != nil {
			t.fail(1, "%v", err)
			return
		}
		pos = 0
	}
}

// runStreamScaleup is stream_scaleup: paced sessions drained over chunked
// HTTP from per-disk segment stores, with a scale-up partway through.
func runStreamScaleup(s spec, rec *recorder, res *result, setupDone func()) error {
	var cl cleanup
	defer cl.run()
	sh := streamShapeOf(s)
	cfg := cm.DefaultConfig()
	cfg.BlockBytes = sh.blockBytes
	// 200 ms of simulated Cheetah time is 22 blocks per disk per round: room
	// for 64 sessions on 8 disks with spare left for ~40 migration moves a
	// round, so the reorganization spreads over some twenty rounds and its
	// writes compete with playback reads instead of landing in one burst.
	cfg.Round = 200 * time.Millisecond
	cfg.Redundancy = cm.RedundancyMirror
	objs := makeObjects(s.Seed, sh.objects, sh.blocks, sh.blockBytes)
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
	st, err := store.Open(store.Config{Dir: filepath.Join(s.Dir, "journal")})
	if err != nil {
		return err
	}
	cl.add(func() { _ = st.Close() })
	if err := st.Bootstrap(srv); err != nil {
		return err
	}
	payloadDir := filepath.Join(s.Dir, "payload")
	mgr, err := dataplane.NewManager(payloadDir, dataplane.Options{})
	if err != nil {
		return err
	}
	cl.add(func() { _ = mgr.Close() })
	poolBase := bufpool.InUse()
	if err := srv.AttachPayloads(mgr.Factory(), benchContent); err != nil {
		return err
	}
	gw, err := gateway.New(srv, gateway.Config{Factory: sourceFactory, Round: sh.round, Store: st,
		// 16 rounds of per-session buffer instead of the default 4: this host
		// now and then takes one of the two vCPUs away for a few hundred
		// milliseconds, and the client goroutines parked on it must not turn
		// that into dropped chunks — no operation may fail at the seed.
		StreamBuffer: 16, StreamEvictAfter: 32})
	if err != nil {
		return err
	}
	cl.add(gw.Close)
	addr, stop, err := serveHTTP(gw.Handler())
	if err != nil {
		return err
	}
	cl.add(stop)
	base := "http://" + addr
	bln, err := listen()
	if err != nil {
		return err
	}
	if _, err := gw.ServeBin(bln); err != nil {
		return err
	}
	script := []scaleOp{{add: 2}}
	or, err := buildOracle(objs, 8, nil, script)
	if err != nil {
		return err
	}
	crcs := contentCRCs(objs)
	control := &http.Client{}
	cl.add(control.CloseIdleConnections)
	clients := make([]*sessionClient, sh.sessions)
	for i := range clients {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		cl.add(tr.CloseIdleConnections)
		clients[i] = &sessionClient{hc: &http.Client{Transport: tr}, base: base, crcs: crcs,
			z: newZipf(s.Seed*31+uint64(i), len(objs), 0.729)}
		clients[i].current.Store(-1)
	}
	setupDone()
	if s.SetupOnly {
		return nil
	}

	w := newWindow(s)
	rd, err := newReader(bln.Addr().String(), s.Seed, objs, 100, w)
	if err != nil {
		return err
	}
	cl.add(func() { _ = rd.c.Close() })
	info, err := rd.c.Epoch()
	if err != nil {
		return err
	}
	or.epoch0 = info.Epoch
	var t tally
	var wg sync.WaitGroup
	for i, c := range clients {
		c.gapsMS, c.bytes = make([][]float64, w.slices()), make([]int64, w.slices())
		wg.Add(1)
		go func(i int, c *sessionClient) {
			defer wg.Done()
			c.run(s, w, &t, c.z.uniform(sh.blocks*3/4), sh.blockBytes)
		}(i, c)
	}
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() { defer rwg.Done(); rd.run(s, w.start, w.end, &t, or) }()
	stopTrace := make(chan struct{})
	if rec != nil {
		rwg.Add(1)
		go func() { defer rwg.Done(); traceRounds(rec, 4, sh.round, stopTrace, gw) }()
	}

	// The scale-up lands a fifth of the way into the window (t = 2 s of 10).
	var before, after *obs.MetricSet
	var dr drained
	var scaleErr error
	var use usage
	var swg sync.WaitGroup
	swg.Add(2)
	go func() {
		defer swg.Done()
		time.Sleep(time.Until(w.start))
		before = scrape(gw.Registry())
		time.Sleep(time.Until(w.start.Add(s.Window / 5)))
		dr, scaleErr = scaleAndDrain(control, base, gw, script[0], w.end.Add(5*time.Second))
		time.Sleep(time.Until(w.end))
		after = scrape(gw.Registry())
	}()
	go func() { defer swg.Done(); use = measure(w) }()
	swg.Wait()
	close(stopTrace)
	rwg.Wait()

	// The window is over: stop every open session and let each client read
	// to its end frame, so the conservation sum closes over a quiet system.
	for _, c := range clients {
		if id := c.current.Load(); id >= 0 {
			req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/sessions/%d", base, id), nil)
			if resp, err := control.Do(req); err == nil {
				_ = resp.Body.Close()
			}
		}
	}
	wg.Wait()

	t.check(scaleErr == nil, "%v", scaleErr)
	if scaleErr == nil {
		t.check(dr.moves == or.optimalMoves(0), "scale-up planned %d moves, RO1 optimum is %d", dr.moves, or.optimalMoves(0))
	}
	final := gw.Status()
	var chunks int64
	var gaps []float64
	var windowBytes int64
	for _, c := range clients {
		chunks += c.chunks
		for i := range c.bytes {
			windowBytes += c.bytes[i]
			gaps = append(gaps, c.gapsMS[i]...)
		}
	}
	// E19's conservation law: every block the server served is a verified
	// client chunk or a round miss the server counted itself.
	served := int64(final.Server.BlocksServed)
	t.check(chunks+final.Gateway.StreamMisses == served,
		"conservation: %d verified chunks + %d server-counted misses != %d blocks served", chunks, final.Gateway.StreamMisses, served)
	t.check(final.Server.BlocksMigrated == dr.moves, "migrated %d blocks, plan had %d", final.Server.BlocksMigrated, dr.moves)
	inUse := bufpool.InUse()
	for deadline := time.Now().Add(2 * time.Second); inUse != poolBase && time.Now().Before(deadline); inUse = bufpool.InUse() {
		time.Sleep(5 * time.Millisecond)
	}
	t.check(inUse == poolBase, "bufpool: %d buffers in use after the run, baseline %d", inUse, poolBase)

	m := mergeSamples(w, rd.sm)
	lookupMetrics(res, m)
	// The pacer sets the delivered rate (e2e.stream_mib_per_s: the sum of the
	// clients' own delivery rates, each over the span between its first and
	// last chunk of the window), and the wall time of a round waits on this
	// host's disk and vCPU wake-ups as much as on the server, so the gated
	// rate is taken over the CPU time the chunks cost.
	windowChunks := float64(windowBytes) / float64(sh.blockBytes)
	bytesPerS := 0.0
	for _, c := range clients {
		var b int64
		for _, n := range c.bytes {
			b += n
		}
		if span := c.last.Sub(c.first).Seconds(); span > 0 {
			bytesPerS += float64(b-sh.blockBytes) / span
		}
	}
	finish(res, w, &t, windowChunks, ratio(windowChunks, use.cpu.Seconds()), use)
	gd := summarize(gaps)
	hiccups := 0
	for _, g := range gaps {
		if g > 2*float64(sh.round.Microseconds())/1e3 {
			hiccups++
		}
	}
	res.Dists["chunk_gap_ms"] = gd
	res.Dists["reader_late_us"] = summarize(rd.late)
	mm := res.Metrics
	mm["e2e.stream_mib_per_s"] = bytesPerS / (1 << 20)
	mm["e2e.chunk_gap_p99_ms"] = gd.P99
	mm["e2e.hiccup_frac"] = float64(hiccups) / float64(max(len(gaps), 1))
	mm["e2e.reorg_drain_ms"] = float64(dr.took.Microseconds()) / 1e3
	mm["gateway.round_busy_ms"] = meanMS(before, after, "gateway_tick_seconds")
	mm["baseline.reader_late_p50_us"] = res.Dists["reader_late_us"].P50
	rounds := delta(before, after, "gateway_tick_seconds_count")
	flushes := delta(before, after, "gateway_stream_flushes_total")
	mm["gateway.flushes_per_round"] = flushes / max(rounds, 1)
	mm["gateway.chunks_per_flush"] = delta(before, after, "gateway_stream_chunks_total") / max(flushes, 1)
	mm["gateway.stream_misses"] = float64(final.Gateway.StreamMisses)
	mm["gateway.evictions"] = float64(final.Gateway.StreamEvictions)
	mm["gateway.overloads"] = float64(final.Gateway.Overloads)
	mm["cm.blocks_served"] = float64(final.Server.BlocksServed)
	mm["cm.blocks_migrated"] = float64(final.Server.BlocksMigrated)
	mm["cm.degraded_reads"] = float64(final.Server.DegradedReads)
	mm["cm.hiccups"] = float64(final.Server.Hiccups)
	mm["bufpool.in_use_end"] = float64(inUse - poolBase)
	mm["dataplane.space_amp"] = float64(dirBytes(payloadDir)) / float64(max(mgr.LiveBytes(), 1))
	reorgCounts(mm, []drained{dr}, []int{or.optimalMoves(0)})
	storeCounts(mm, before, after)
	return nil
}

// reorgCounts fills the reorg layer's counts from the awaited operations.
func reorgCounts(mm map[string]float64, ops []drained, optimal []int) {
	var rounds, moves, opt int
	for i, d := range ops {
		rounds += d.rounds
		moves += d.moves
		opt += optimal[i]
	}
	mm["reorg.rounds_to_drain"] = float64(rounds) / float64(max(len(ops), 1))
	mm["reorg.moves_per_round"] = float64(moves) / float64(max(rounds, 1))
	if moves > 0 {
		mm["reorg.optimal_over_moved"] = float64(opt) / float64(moves)
	}
}

// storeCounts fills the journal's counts over the window.
func storeCounts(mm map[string]float64, before, after *obs.MetricSet) {
	events := delta(before, after, "store_appends_total")
	mm["store.events"] = events
	mm["store.syncs"] = delta(before, after, "store_fsyncs_total")
	mm["store.journal_bytes_per_event"] = delta(before, after, "store_append_bytes_total") / max(events, 1)
	mm["store.fsync_ms"] = meanMS(before, after, "store_fsync_seconds")
	mm["store.syncs_per_round"] = mm["store.syncs"] / max(delta(before, after, "gateway_tick_seconds_count"), 1)
}

// runReorgDurable is reorg_durable: the control plane under a durable
// journal and a follower — six scaling operations awaited one by one, then
// the data directory copied as it lies and recovered.
func runReorgDurable(s spec, rec *recorder, res *result, setupDone func()) error {
	var cl cleanup
	defer cl.run()
	nObj, nBlk := catalogueShape(s)
	// 1.2 s of simulated disk time is 132 blocks per disk per round, so an
	// operation moving a fifth of 128,000 blocks through two disks takes
	// about a hundred rounds; at a 2 ms wall round the owner loop's work per
	// round — migrate, republish, journal, fsync — and not the ticker sets
	// how long that is.
	cfg := metaConfig(1200 * time.Millisecond)
	objs := makeObjects(s.Seed, nObj, nBlk, cfg.BlockBytes)
	srv, err := newLoadedServer(cfg, objs)
	if err != nil {
		return err
	}
	journal := filepath.Join(s.Dir, "journal")
	st, err := store.Open(store.Config{Dir: journal})
	if err != nil {
		return err
	}
	cl.add(func() { _ = st.Close() })
	if err := st.Bootstrap(srv); err != nil {
		return err
	}
	reg := obs.NewRegistry()
	ldr, err := repl.NewLeader(repl.LeaderConfig{Store: st, Registry: reg})
	if err != nil {
		return err
	}
	rln, err := listen()
	if err != nil {
		return err
	}
	ldr.Serve(rln)
	cl.add(func() { _ = ldr.Close() })
	gw, err := gateway.New(srv, gateway.Config{Factory: sourceFactory, Round: 2 * time.Millisecond,
		Store: st, Registry: reg, ReplLeader: ldr})
	if err != nil {
		return err
	}
	cl.add(gw.Close)
	addr, stop, err := serveHTTP(gw.Handler())
	if err != nil {
		return err
	}
	cl.add(stop)
	base := "http://" + addr
	bln, err := listen()
	if err != nil {
		return err
	}
	if _, err := gw.ServeBin(bln); err != nil {
		return err
	}
	fol, err := repl.StartFollower(repl.FollowerConfig{Addr: rln.Addr().String(),
		X0: placement.NewX0Func(sourceFactory), Factory: sourceFactory, Registry: obs.NewRegistry()})
	if err != nil {
		return err
	}
	cl.add(func() { _ = fol.Close() })
	if err := awaitFollower(fol, st, 5*time.Second); err != nil {
		return err
	}
	or, err := buildOracle(objs, growthN0, growthHistory, durableScript)
	if err != nil {
		return err
	}
	control := &http.Client{}
	cl.add(control.CloseIdleConnections)
	setupDone()
	if s.SetupOnly {
		return nil
	}

	w := newWindow(s)
	rd, err := newReader(bln.Addr().String(), s.Seed, objs, 100, w)
	if err != nil {
		return err
	}
	cl.add(func() { _ = rd.c.Close() })
	info, err := rd.c.Epoch()
	if err != nil {
		return err
	}
	or.epoch0 = info.Epoch
	var t tally
	var bg sync.WaitGroup
	stopBG := make(chan struct{})
	bg.Add(2)
	go func() { defer bg.Done(); rd.run(s, w.start, w.end, &t, or) }()
	var lagMS, lagEvents []float64
	go func() {
		defer bg.Done()
		lagMS, lagEvents = sampleLag(st, fol, w, stopBG)
	}()
	if rec != nil {
		bg.Add(1)
		go func() { defer bg.Done(); traceRounds(rec, 25, 2*time.Millisecond, stopBG, gw) }()
	}

	// The script: one operation after another from the start of the window,
	// each awaited to drain, so the array reorganizes without a pause for as
	// long as the script lasts and the rest of the window is the quiet tail.
	var before, after *obs.MetricSet
	var use usage
	var ops []drained
	var optimal []int
	var swg sync.WaitGroup
	swg.Add(2)
	go func() { defer swg.Done(); use = measure(w) }()
	go func() {
		defer swg.Done()
		time.Sleep(time.Until(w.start))
		before = scrape(reg)
		for k, op := range durableScript {
			migratedBefore := gw.Status().Server.BlocksMigrated
			d, err := scaleAndDrain(control, base, gw, op, w.end.Add(10*time.Second))
			if err != nil {
				t.fail(1, "%v", err)
				return
			}
			want := or.optimalMoves(k)
			migrated := gw.Status().Server.BlocksMigrated - migratedBefore
			t.check(d.moves == want && migrated == want,
				"op %d (%v): planned %d, migrated %d, RO1 optimum %d", k, op, d.moves, migrated, want)
			ops = append(ops, d)
			optimal = append(optimal, want)
		}
		time.Sleep(time.Until(w.end))
		after = scrape(reg)
	}()
	swg.Wait()
	close(stopBG)
	bg.Wait()
	if after == nil {
		after = scrape(reg)
	}

	// The follower must reach the leader's final durable LSN.
	t.check(awaitFollower(fol, st, 3*time.Second) == nil, "follower did not converge to the leader's durable LSN")
	// Crash recovery from the directory as it lies: no graceful close, no
	// shutdown checkpoint — the gateway above is still running.
	copyTo := filepath.Join(s.Dir, "copy")
	if err := copyDir(journal, copyTo); err != nil {
		return err
	}
	r0 := time.Now()
	st2, err := store.Open(store.Config{Dir: copyTo})
	if err != nil {
		return err
	}
	defer st2.Close()
	srv2, info2, err := st2.Recover(placement.NewX0Func(sourceFactory))
	if err != nil {
		t.fail(1, "recover the copied directory: %v", err)
	} else {
		verr := srv2.VerifyIntegrity()
		recoverMS := float64(time.Since(r0).Microseconds()) / 1e3
		res.Metrics["e2e.recover_ms"] = recoverMS
		res.Metrics["store.replayed_events"] = float64(info2.ReplayedEvents)
		t.check(verr == nil, "recovered server: %v", verr)
		last := len(or.tables) - 1
		if len(ops) < len(durableScript) {
			last = len(ops)
		}
		wrong := 0
		for i, o := range objs {
			for b := 0; b < o.Blocks; b++ {
				if srv2.Strategy().Disk(placement.BlockRef{Seed: o.Seed, Index: uint64(b)}) != or.want(last, i, b) {
					wrong++
				}
			}
		}
		t.check(wrong == 0 && srv2.N() == or.n[last], "recovered server places %d blocks where the oracle does not (%d disks, oracle %d)",
			wrong, srv2.N(), or.n[last])
	}

	m := mergeSamples(w, rd.sm)
	lookupMetrics(res, m)
	// Blocks migrated per second of drain, over the whole script.
	var moved int
	var drain time.Duration
	for _, d := range ops {
		moved += d.moves
		drain += d.took
	}
	finish(res, w, &t, float64(moved), ratio(float64(moved), drain.Seconds()), use)
	mm := res.Metrics
	mm["e2e.reorg_drain_ms"] = float64(drain.Microseconds()) / 1e3
	ld := summarize(lagMS)
	res.Dists["follower_lag_ms"] = ld
	res.Dists["reader_late_us"] = summarize(rd.late)
	mm["e2e.follower_lag_p50_ms"] = ld.P50
	mm["e2e.follower_lag_p99_ms"] = ld.P99
	mm["repl.lag_events_p99"] = summarize(lagEvents).P99
	mm["baseline.reader_late_p50_us"] = res.Dists["reader_late_us"].P50
	mm["gateway.round_busy_ms"] = meanMS(before, after, "gateway_tick_seconds")
	final := gw.Status()
	mm["gateway.overloads"] = float64(final.Gateway.Overloads)
	mm["cm.blocks_migrated"] = float64(final.Server.BlocksMigrated)
	reorgCounts(mm, ops, optimal)
	storeCounts(mm, before, after)
	return nil
}

// awaitFollower waits until the follower's view has applied the leader's
// durable LSN.
func awaitFollower(fol *repl.Follower, st *store.Store, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		target, _ := st.Durable()
		if v := fol.View(); v != nil && v.AppliedLSN >= target {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower behind the leader's durable LSN %d after %v", target, limit)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// sampleLag notes every advance of the leader's durable LSN it sees and
// measures how long the follower's view takes to reach each one (ms), plus
// how many events the view trailed by at the moment of the advance.
func sampleLag(st *store.Store, fol *repl.Follower, w window, stop <-chan struct{}) (ms, events []float64) {
	type mark struct {
		lsn uint64
		at  time.Time
	}
	var pending []mark
	applied := func() uint64 {
		if v := fol.View(); v != nil {
			return v.AppliedLSN
		}
		return 0
	}
	_, ch := st.DurableNotify()
	advance := func() {
		now := time.Now()
		var lsn uint64
		lsn, ch = st.DurableNotify()
		pending = append(pending, mark{lsn, now})
		events = append(events, float64(lsn-min(applied(), lsn)))
	}
	for {
		if len(pending) == 0 {
			select {
			case <-stop:
				return ms, events
			case <-ch:
				advance()
			}
		}
		select {
		case <-stop:
			return ms, events
		case <-ch:
			advance()
		default:
		}
		now, have := time.Now(), applied()
		for len(pending) > 0 && pending[0].lsn <= have {
			if w.sliceOf(pending[0].at) >= 0 {
				ms = append(ms, float64(now.Sub(pending[0].at).Microseconds())/1e3)
			}
			pending = pending[1:]
		}
		// A lag below a timer's resolution is yield-spun through; a follower
		// further behind is polled.
		if len(pending) > 0 && now.Sub(pending[0].at) < 2*time.Millisecond {
			runtime.Gosched()
		} else if len(pending) > 0 {
			time.Sleep(100 * time.Microsecond)
		}
	}
}
