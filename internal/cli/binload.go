package cli

import (
	"fmt"
	"io"
	"net/http"
	"time"

	"scaddar/internal/binproto"
	"scaddar/internal/cluster"
	"scaddar/internal/cm"
)

// loadgen -bin: the experiment behind docs/EXPERIMENTS.md E20. The same
// Zipf-shaped lookup stream is replayed three times — over HTTP GETs, over
// binary single lookups, and over binary batched lookups — and the three
// phases are reported side by side, so the protocol's throughput claim can
// be reproduced against a live server instead of a micro-benchmark.
//
// Against a cluster router the HTTP phase goes through the router proxy
// (that is the production HTTP path), while the binary phases dial each
// shard's advertised binAddr directly and route client-side with the same
// jump hash the router uses. That is fair as long as the topology is
// static for the duration of the run: shard scale-ups (-scale-at) only
// grow one shard's internal disk array and move no objects between
// shards, but a concurrent shard add/drain would invalidate the
// client-side routing table.

// binTarget maps an object ID to the binary client pool that owns it.
type binTarget struct {
	pools   []*binproto.Pool
	buckets int         // routing slots; 0 = single gateway, pools[0] owns all
	pins    map[int]int // pinned object → pool index (cluster mode)
}

func (t *binTarget) index(object int) int {
	if t.buckets == 0 {
		return 0
	}
	if i, ok := t.pins[object]; ok {
		return i
	}
	return cluster.RouteSlot(object, t.buckets)
}

func (t *binTarget) close() {
	for _, p := range t.pools {
		p.Close()
	}
}

// binLoad resolves the binary endpoints, replays the same lookup workload
// over the HTTP and binary read paths — three runs of the engine, one
// operation each — and prints the comparison. Latency samples are per timed
// operation: one lookup in the HTTP and single phases, one whole frame in
// the batched phase (every lookup in a frame experiences the frame's
// latency, so frame percentiles are the honest per-request figure).
func (l *load) binLoad() error {
	opts := l.opts
	target, err := resolveBinTarget(opts, l.hc)
	if err != nil {
		return err
	}
	defer target.close()
	if opts.cluster {
		l.printf("loadgen -bin: %d clients, %s per phase, %d objects, Zipf θ=%g; HTTP via router %s, binary shard-direct (%d shards, client-side jump hash)\n",
			opts.clients, opts.duration, len(l.objects), opts.zipf, opts.addr, len(target.pools))
	} else {
		l.printf("loadgen -bin: %d clients, %s per phase, %d objects, Zipf θ=%g against %s\n",
			opts.clients, opts.duration, len(l.objects), opts.zipf, opts.addr)
	}

	phases := []struct {
		name, latNote string
		newOp         func(*loadWorker) func() error
	}{
		{"http", "lat", func(wk *loadWorker) func() error {
			return func() error {
				obj, idx := wk.drawBlock()
				t0 := time.Now()
				resp, err := wk.hc.Get(fmt.Sprintf("%s/v1/objects/%d/blocks/%d", opts.addr, obj.ID, idx))
				if err != nil {
					return err
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				wk.tally(t0, resp.StatusCode == http.StatusOK)
				return nil
			}
		}},
		{"bin single", "lat", func(wk *loadWorker) func() error {
			return func() error {
				obj, idx := wk.drawBlock()
				c := target.pools[target.index(obj.ID)].Get()
				t0 := time.Now()
				_, _, _, err := c.Locate(obj.ID, idx)
				wk.tally(t0, err == nil)
				return nil
			}
		}},
		{fmt.Sprintf("bin batch%d", opts.batch), "frame", func(wk *loadWorker) func() error {
			// One address buffer per shard pool: lookups accumulate on their
			// owning shard and flush as a full frame.
			bufs := make([][]cm.BlockAddr, len(target.pools))
			out := make([]binproto.Result, opts.batch)
			return func() error {
				obj, idx := wk.drawBlock()
				pi := target.index(obj.ID)
				bufs[pi] = append(bufs[pi], cm.BlockAddr{Object: obj.ID, Index: idx})
				if len(bufs[pi]) < opts.batch {
					return nil
				}
				t0 := time.Now()
				if _, err := target.pools[pi].Get().LocateBatch(bufs[pi], out); err != nil {
					return err
				}
				wk.samples = append(wk.samples, sample{at: t0.Sub(wk.start), lat: time.Since(t0)})
				for _, r := range out {
					if r.Code != 0 {
						wk.n[nErrs]++
					} else {
						wk.n[nLookups]++
					}
				}
				bufs[pi] = bufs[pi][:0]
				return nil
			}
		}},
	}
	results := make([]*loadResult, len(phases))
	for i, ph := range phases {
		if results[i], err = l.run(ph.newOp); err != nil {
			return fmt.Errorf("%s phase: %w", ph.name, err)
		}
	}
	for i, ph := range phases {
		res := results[i]
		_, line := latencyLine(res.samples, nil)
		l.printf("%-14s %9d lookups in %-8s %9.0f lookups/s  errors %-5d %s %s\n",
			ph.name+":", res.n[nLookups], res.elapsed.Round(time.Millisecond), res.rate(nLookups), res.n[nErrs], ph.latNote, line)
	}
	if httpRate := results[0].rate(nLookups); httpRate > 0 {
		l.printf("binary single vs HTTP: %.1fx throughput; batched vs HTTP: %.1fx throughput\n",
			results[1].rate(nLookups)/httpRate, results[2].rate(nLookups)/httpRate)
	}
	return nil
}

// tally records one single-lookup outcome timed from t0: a success is a
// lookup with a latency sample, a failure only an error count.
func (wk *loadWorker) tally(t0 time.Time, ok bool) {
	if !ok {
		wk.n[nErrs]++
		return
	}
	wk.samples = append(wk.samples, sample{at: t0.Sub(wk.start), lat: time.Since(t0)})
	wk.n[nLookups]++
}

// resolveBinTarget discovers the binary endpoint(s). A single gateway
// advertises its binAddr in /v1/status; a cluster router's aggregated
// status page embeds every shard's own status document, so one request
// yields the routing table and each shard's binary address.
func resolveBinTarget(opts loadgenOptions, hc *http.Client) (*binTarget, error) {
	poolSize := opts.clients
	if poolSize > 8 {
		poolSize = 8
	}
	ccfg := binproto.ClientConfig{RequestTimeout: 30 * time.Second}
	st, err := fetchStatus(hc, opts.addr)
	if err != nil {
		return nil, fmt.Errorf("status: %w", err)
	}
	if !opts.cluster {
		if st.BinAddr == "" {
			return nil, fmt.Errorf("gateway advertises no binary listener: start serve with -bin-addr")
		}
		pool, err := binproto.DialPool(st.BinAddr, poolSize, ccfg)
		if err != nil {
			return nil, fmt.Errorf("dial %s: %w", st.BinAddr, err)
		}
		return &binTarget{pools: []*binproto.Pool{pool}}, nil
	}

	if len(st.Cluster.Shards) == 0 {
		return nil, fmt.Errorf("cluster has no shards")
	}
	t := &binTarget{buckets: st.Cluster.Buckets, pins: map[int]int{}}
	indexOf := map[int]int{}
	fail := func(err error) (*binTarget, error) {
		t.close()
		return nil, err
	}
	// Pools in routing order: slot i of the jump hash is st.Cluster.Shards[i].
	for i, sh := range st.Cluster.Shards {
		shard, err := st.shard(sh.ID)
		if err != nil {
			return fail(err)
		}
		if shard.BinAddr == "" {
			return fail(fmt.Errorf("shard %d advertises no binary listener: start the cluster with -bin", sh.ID))
		}
		pool, err := binproto.DialPool(shard.BinAddr, poolSize, ccfg)
		if err != nil {
			return fail(fmt.Errorf("dial shard %d (%s): %w", sh.ID, shard.BinAddr, err))
		}
		t.pools = append(t.pools, pool)
		indexOf[sh.ID] = i
	}
	for obj, shardID := range st.Cluster.Pins {
		i, ok := indexOf[shardID]
		if !ok {
			return fail(fmt.Errorf("object %d pinned to unknown shard %d", obj, shardID))
		}
		t.pins[obj] = i
	}
	return t, nil
}
