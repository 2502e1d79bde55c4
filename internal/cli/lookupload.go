package cli

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"time"

	"scaddar/internal/cluster"
	"scaddar/internal/obs"
)

// loadgen's default mode: sessions of timed block lookups. Each operation
// opens a session on a Zipf-popular object, walks -per-session blocks with
// timed GETs (every other one on the -follower replica when there is one)
// and closes it; the -dash dashboard and the -follower lag sampler ride the
// same run as side tasks.

// lookupLoad drives concurrent lookup sessions against a running gateway and
// reports throughput and latency percentiles, split by the reorganization
// window when a scale-up was requested mid-run.
func (l *load) lookupLoad() error {
	opts := l.opts
	l.printf("loadgen: %d clients against %s for %s (%d objects, Zipf θ=%g)\n",
		opts.clients, opts.addr, opts.duration, len(l.objects), opts.zipf)

	var side []sideTask
	if opts.dash > 0 {
		side = append(side, sideTask{every: opts.dash, tick: l.dashTick()})
	}
	// With a follower in play, sample its replication lag through the run;
	// percentiles land in the final report next to the latency ones.
	var lagSamples []uint64
	if opts.follower != "" {
		side = append(side, sideTask{every: 10 * time.Millisecond, tick: func(time.Duration) {
			if lag, err := fetchFollowerLag(l.hc, opts.follower); err == nil {
				lagSamples = append(lagSamples, lag)
			}
		}})
	}
	res, err := l.run(func(wk *loadWorker) func() error { return wk.walkSession }, side...)
	if err != nil {
		return err
	}

	codes := map[int]int{}
	for _, s := range res.samples {
		codes[s.code]++
	}
	l.printf("requests %d in %s (%.1f req/s)  sessions opened %d  rejected %d  retries after 503 %d\n",
		len(res.samples), res.elapsed.Round(time.Millisecond), float64(len(res.samples))/res.elapsed.Seconds(),
		res.n[nOpened], res.n[nRejected], res.n[nRetries])
	keys := make([]int, 0, len(codes))
	for k := range codes {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	status := "status:"
	for _, k := range keys {
		status += fmt.Sprintf("  %d x %d", k, codes[k])
	}
	l.printf("%s\n", status)

	l.reportWindows(res, "read latency overall:", okRead)
	if opts.cluster {
		l.reportShardSkew(res)
	}
	if len(lagSamples) > 0 {
		sort.Slice(lagSamples, func(i, j int) bool { return lagSamples[i] < lagSamples[j] })
		q := func(p float64) uint64 {
			i := int(p * float64(len(lagSamples)-1))
			return lagSamples[i]
		}
		l.printf("replication lag (events) n=%-7d p50 %-9d p95 %-9d p99 %d  max %d\n",
			len(lagSamples), q(0.50), q(0.95), q(0.99), lagSamples[len(lagSamples)-1])
	}
	return nil
}

// okRead keeps the reads the latency report is about: a 503 or a miss has
// no service latency worth a percentile.
func okRead(s sample) bool { return s.code == http.StatusOK }

// walkSession is the lookup operation: open a session, walk its blocks with
// timed lookups, close it.
func (wk *loadWorker) walkSession() error {
	opts := wk.opts
	obj := wk.objects[wk.zipf.Draw()]
	sess, ok := wk.openSession(obj.ID)
	if !ok {
		wk.n[nRetries]++
		return nil
	}
	pos := int(wk.rng.Next() % uint64(obj.Blocks))
	for i := 0; i < opts.perSess && wk.ctx.Err() == nil; i++ {
		idx := (pos + i) % obj.Blocks
		target := opts.addr
		if opts.follower != "" && i%2 == 1 {
			target = opts.follower
		}
		t0 := time.Now()
		resp, err := wk.hc.Get(fmt.Sprintf("%s/v1/objects/%d/blocks/%d", target, obj.ID, idx))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		s := sample{at: t0.Sub(wk.start), lat: time.Since(t0), code: resp.StatusCode}
		if opts.cluster {
			// The router stamps every proxied response with the ID of the
			// shard that answered it.
			s.shard = resp.Header.Get(cluster.ShardHeader)
		}
		wk.samples = append(wk.samples, s)
		// A 503 is the server pushing back, not a miss: honor its
		// Retry-After hint with jitter and retry the same block.
		if resp.StatusCode == http.StatusServiceUnavailable {
			wk.n[nRetries]++
			wk.backoff(retryAfterHint(resp.Header))
			i--
		}
	}
	req, _ := http.NewRequest("DELETE", fmt.Sprintf("%s/v1/sessions/%d", opts.addr, sess), nil)
	if resp, err := wk.hc.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	return nil
}

// dashTick is the live dashboard: each tick scrapes the Prometheus endpoint
// and prints one line with throughput, latency, and the server's own view
// of the reorganization.
func (l *load) dashTick() func(time.Duration) {
	opts := l.opts
	var lastReads float64
	return func(elapsed time.Duration) {
		resp, err := l.hc.Get(opts.addr + "/v1/metrics")
		if err != nil {
			return
		}
		samples, err := obs.ParseText(resp.Body)
		resp.Body.Close()
		if err != nil {
			return
		}
		ms := obs.NewMetricSet(samples)
		// A router's page carries its own counts, per shard: the reads it
		// answered from its view of the shard, and what it sent there — which a
		// shard sees as a binary lookup, not in gateway_reads_total.
		counters := []string{"gateway_reads_total"}
		if opts.cluster {
			counters = []string{"cluster_reads_local_total", "cluster_routed_total"}
		}
		var reads float64
		for _, s := range samples {
			if slices.Contains(counters, s.Name) {
				reads += s.Value
			}
		}
		line := fmt.Sprintf("dash t=%-7s %7.0f req/s", elapsed.Round(100*time.Millisecond),
			(reads-lastReads)/opts.dash.Seconds())
		lastReads = reads
		latency := "gateway_read_seconds"
		if opts.cluster {
			shards, _ := ms.Value("cluster_shards")
			unavail, _ := ms.Value("cluster_unavailable_total")
			line += fmt.Sprintf("  shards=%.0f  unavailable=%.0f", shards, unavail)
			latency = "cluster_proxy_seconds"
		} else {
			disks, _ := ms.Value("cm_disks")
			pending, _ := ms.Value("cm_migration_pending")
			unf, _ := ms.Value("cm_unfairness")
			line += fmt.Sprintf("  disks=%.0f  pending=%.0f  unfairness=%.3f", disks, pending, unf)
		}
		if h, ok := ms.Histogram(latency, "", ""); ok && h.Count > 0 {
			line += fmt.Sprintf("  p95=%s", secondsDuration(h.Quantile(0.95)))
		}
		l.printf("%s\n", line)
	}
}

// reportShardSkew breaks successful reads down by the shard that answered
// them. Object→shard routing is uniform by hash, but Zipf popularity
// concentrates traffic on whichever shards hold the hot objects — the skew
// factor shows how far the hottest shard sits above a uniform split.
func (l *load) reportShardSkew(res *loadResult) {
	counts := map[string]int{}
	total := 0
	for _, s := range res.samples {
		if okRead(s) && s.shard != "" {
			counts[s.shard]++
			total++
		}
	}
	if total == 0 {
		l.printf("per-shard: no attributed reads (is the target a cluster router?)\n")
		return
	}
	shards := make([]string, 0, len(counts))
	for id := range counts {
		shards = append(shards, id)
	}
	sort.Slice(shards, func(i, j int) bool {
		a, _ := strconv.Atoi(shards[i])
		b, _ := strconv.Atoi(shards[j])
		return a < b
	})
	ideal := 1.0 / float64(len(shards))
	maxShare := 0.0
	l.printf("per-shard read share (uniform would be %.1f%% each):\n", 100*ideal)
	for _, id := range shards {
		share := float64(counts[id]) / float64(total)
		if share > maxShare {
			maxShare = share
		}
		l.report(res, fmt.Sprintf("  shard %-3s %5.1f%%:", id, 100*share),
			func(s sample) bool { return okRead(s) && s.shard == id })
	}
	l.printf("skew: hottest shard carries %.2fx its uniform share\n", maxShare/ideal)
}

// fetchFollowerLag reads the replica's position and returns how many
// journal events it trails the leader's advertised frontier by.
func fetchFollowerLag(hc *http.Client, base string) (uint64, error) {
	resp, err := hc.Get(base + "/v1/replication")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("replication status %d", resp.StatusCode)
	}
	var st struct {
		Follower struct {
			AppliedLSN uint64 `json:"appliedLsn"`
			LeaderLSN  uint64 `json:"leaderLsn"`
		} `json:"follower"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, err
	}
	if st.Follower.LeaderLSN <= st.Follower.AppliedLSN {
		return 0, nil
	}
	return st.Follower.LeaderLSN - st.Follower.AppliedLSN, nil
}
