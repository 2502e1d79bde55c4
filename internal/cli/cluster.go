package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"scaddar/internal/cluster"
	"scaddar/internal/cm"
	"scaddar/internal/gateway"
	"scaddar/internal/obs"
	"scaddar/internal/placement"
	"scaddar/internal/prng"
	"scaddar/internal/store"
)

// clusterOptions configures the cluster subcommand; a plain struct so
// tests can drive runCluster without flags or signals.
type clusterOptions struct {
	addr         string
	shards       int
	shardPort    int
	join         string
	manifest     string
	dataDir      string
	n0           int
	objects      int
	blocks       int
	round        time.Duration
	shardTimeout time.Duration
	opTimeout    time.Duration
	probe        time.Duration
	bin          bool
}

func cmdCluster(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("cluster", flag.ContinueOnError)
	fs.SetOutput(w)
	var opts clusterOptions
	fs.StringVar(&opts.addr, "addr", "127.0.0.1:8090", "router listen address")
	fs.IntVar(&opts.shards, "shards", 3, "in-process shard gateways to boot (0 = join external shards only)")
	fs.IntVar(&opts.shardPort, "shard-port", 0, "first in-process shard port, consecutive from there (0 = ephemeral; required with -data-dir)")
	fs.StringVar(&opts.join, "join", "", "comma-separated base URLs of external shard gateways to join")
	fs.StringVar(&opts.manifest, "manifest", "", "cluster manifest path (default <data-dir>/cluster.json; empty without -data-dir = ephemeral topology)")
	fs.StringVar(&opts.dataDir, "data-dir", "", "durable state root: per-shard journals under shard-<i>/ plus the cluster manifest")
	fs.IntVar(&opts.n0, "n0", 8, "initial disk count per shard")
	fs.IntVar(&opts.objects, "objects", 24, "objects to seed across the cluster through the router (0 = none)")
	fs.IntVar(&opts.blocks, "blocks", 600, "blocks per seeded object")
	fs.DurationVar(&opts.round, "round", 100*time.Millisecond, "shard round period")
	fs.DurationVar(&opts.shardTimeout, "shard-timeout", 2*time.Second, "per-shard sub-request deadline (routing and fan-out)")
	fs.DurationVar(&opts.opTimeout, "op-timeout", 2*time.Minute, "topology-operation deadline (shard add/drain incl. migration)")
	fs.DurationVar(&opts.probe, "probe", time.Second, "shard health-probe interval (negative = off)")
	fs.BoolVar(&opts.bin, "bin", false, "give every in-process shard a binary lookup listener (docs/PROTOCOL.md) on an ephemeral port, advertised via each shard's /v1/status")
	if err := fs.Parse(args); err != nil {
		return err
	}

	stop := make(chan struct{})
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		<-sigs
		close(stop)
	}()
	return runCluster(opts, w, nil, stop)
}

// shardProc is one in-process shard: its gateway, HTTP server, and
// (optionally) durable store.
type shardProc struct {
	g   *gateway.Gateway
	hs  *http.Server
	st  *store.Store
	url string
	bin string // binary lookup address, when -bin is set
}

func (p *shardProc) close() {
	p.hs.Close()
	p.g.Close()
	if p.st != nil {
		p.st.Close()
	}
}

// bootClusterShard builds one in-process shard gateway and serves it. A
// fresh shard starts with an empty catalog (objects arrive through the
// router, which owns placement); with a data directory, existing state is
// recovered from the shard's own journal.
func bootClusterShard(opts clusterOptions, i int, w io.Writer) (*shardProc, error) {
	var st *store.Store
	var srv *cm.Server
	var err error
	reg, ring := obs.NewRegistry(), obs.NewRing(gateway.TraceSpans) // before Recover, as in serve
	if opts.dataDir != "" {
		dir := filepath.Join(opts.dataDir, fmt.Sprintf("shard-%d", i))
		st, err = store.Open(store.Config{Dir: dir})
		if err != nil {
			return nil, err
		}
		st.Observe(reg)
		st.SetTraceRing(ring)
	}
	fail := func(err error) (*shardProc, error) {
		if st != nil {
			st.Close()
		}
		return nil, err
	}
	if st != nil && st.HasState() {
		var info *store.RecoveryInfo
		srv, info, err = st.Recover(defaultX0())
		if err != nil {
			return fail(fmt.Errorf("recover shard %d: %w", i, err))
		}
		fmt.Fprintf(w, "cluster: shard %d recovered: checkpoint LSN %d, %d events replayed\n",
			i, info.CheckpointLSN, info.ReplayedEvents)
	} else {
		strat, serr := placement.NewScaddar(opts.n0, defaultX0())
		if serr != nil {
			return fail(serr)
		}
		srv, err = cm.NewServer(cm.DefaultConfig(), strat)
		if err != nil {
			return fail(err)
		}
		if st != nil {
			if err := st.Bootstrap(srv); err != nil {
				return fail(fmt.Errorf("bootstrap shard %d: %w", i, err))
			}
		}
	}
	g, err := gateway.New(srv, gateway.Config{
		Factory:   func(seed uint64) prng.Source { return prng.NewSplitMix64(seed) },
		Round:     opts.round,
		Store:     st,
		Registry:  reg,
		TraceRing: ring,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(w, "shard %d: "+format+"\n", append([]any{i}, args...)...)
		},
	})
	if err != nil {
		return fail(err)
	}
	addr := "127.0.0.1:0"
	if opts.shardPort > 0 {
		addr = fmt.Sprintf("127.0.0.1:%d", opts.shardPort+i)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		g.Close()
		return fail(err)
	}
	// With -bin, each shard also answers binary lookups (docs/PROTOCOL.md)
	// on an ephemeral port. The address is advertised in the shard's own
	// /v1/status (and through the router's aggregated status page), so it
	// does not need a stable port even with -data-dir.
	binAddr := ""
	if opts.bin {
		bln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			ln.Close()
			g.Close()
			return fail(err)
		}
		if _, err := g.ServeBin(bln); err != nil {
			bln.Close()
			ln.Close()
			g.Close()
			return fail(err)
		}
		binAddr = bln.Addr().String()
	}
	hs := &http.Server{Handler: g.Handler()}
	go hs.Serve(ln)
	return &shardProc{g: g, hs: hs, st: st, url: "http://" + ln.Addr().String(), bin: binAddr}, nil
}

// runCluster boots the shard fleet (or joins an external one), fronts it
// with the cluster router, optionally seeds a library through the router,
// and serves until stop closes.
func runCluster(opts clusterOptions, w io.Writer, ready func(addr string), stop <-chan struct{}) error {
	if opts.shards < 0 {
		return fmt.Errorf("shards %d", opts.shards)
	}
	if opts.dataDir != "" {
		if opts.manifest == "" {
			opts.manifest = filepath.Join(opts.dataDir, "cluster.json")
		}
		if opts.shards > 0 && opts.shardPort == 0 {
			return fmt.Errorf("-data-dir with in-process shards needs -shard-port: the manifest records shard URLs, so they must be stable across restarts")
		}
	}

	// Boot the in-process fleet first so every URL exists before the router
	// probes them.
	var urls []string
	for i := 0; i < opts.shards; i++ {
		p, err := bootClusterShard(opts, i, w)
		if err != nil {
			return err
		}
		defer p.close()
		urls = append(urls, p.url)
		fmt.Fprintf(w, "cluster: shard %d listening on %s\n", i, p.url)
		if p.bin != "" {
			fmt.Fprintf(w, "cluster: shard %d binary lookups on %s\n", i, p.bin)
		}
	}
	for _, u := range strings.Split(opts.join, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}

	r, err := cluster.NewRouter(cluster.RouterConfig{
		ManifestPath:  opts.manifest,
		ShardTimeout:  opts.shardTimeout,
		OpTimeout:     opts.opTimeout,
		ProbeInterval: opts.probe,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(w, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	defer r.Close()

	// Join every URL the topology does not already know (a recovered
	// manifest already lists the stable-port shards).
	known := map[string]bool{}
	for _, sh := range r.Topology().Shards {
		known[sh.URL] = true
	}
	ctx := context.Background()
	for _, u := range urls {
		if known[u] {
			continue
		}
		info, stats, err := r.AddShard(ctx, u)
		if err != nil {
			return fmt.Errorf("join %s: %w", u, err)
		}
		if stats.Moved > 0 {
			fmt.Fprintf(w, "cluster: shard %d joined (%s): moved %d/%d objects (ideal %.1f%%)\n",
				info.ID, u, stats.Moved, stats.Objects, 100*stats.Ideal)
		}
	}
	man := r.Topology()
	if len(man.Shards) == 0 {
		return fmt.Errorf("no shards: use -shards or -join")
	}

	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return err
	}
	hs, serveErr := startHTTP(ln, r.Handler())
	base := "http://" + ln.Addr().String()

	if opts.objects > 0 {
		if err := seedClusterObjects(base, opts.objects, opts.blocks); err != nil {
			return fmt.Errorf("seed: %w", err)
		}
		fmt.Fprintf(w, "cluster: %d objects x %d blocks seeded through the router\n",
			opts.objects, opts.blocks)
	}
	fmt.Fprintf(w, "cluster: topology v%d: %d shards, %d routing slots\n",
		man.Version, len(man.Shards), man.Buckets)
	fmt.Fprintf(w, "cluster: router listening on %s (Ctrl-C to exit)\n", base)
	if ready != nil {
		ready(ln.Addr().String())
	}

	select {
	case err := <-serveErr:
		return err
	case <-stop:
	}
	fmt.Fprintf(w, "cluster: shutting down\n")
	return shutdownHTTP(hs, 10*time.Second)
}

// seedClusterObjects loads a synthetic library through the router, which
// places each object on its jump-hash home shard. Objects that already
// exist (a recovered cluster) are left alone.
func seedClusterObjects(base string, objects, blocks int) error {
	hc := &http.Client{Timeout: 30 * time.Second}
	for id := 0; id < objects; id++ {
		body, err := json.Marshal(map[string]any{
			"id": id, "seed": uint64(42 + id), "blocks": blocks,
			"bitrateBitsPerSec": 4 << 20,
		})
		if err != nil {
			return err
		}
		resp, err := hc.Post(base+"/v1/admin/objects", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusCreated:
		case http.StatusConflict: // already seeded (recovered shard)
		default:
			return fmt.Errorf("object %d: status %d: %s", id, resp.StatusCode, bytes.TrimSpace(data))
		}
	}
	return nil
}
