package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"scaddar/internal/cm"
	"scaddar/internal/dataplane"
	"scaddar/internal/gateway"
	"scaddar/internal/obs"
	"scaddar/internal/placement"
	"scaddar/internal/prng"
	"scaddar/internal/repl"
	"scaddar/internal/store"
	"scaddar/internal/workload"
)

// serveOptions configures the serve subcommand; it is a plain struct so
// tests can drive serveGateway without a flag set or signals.
type serveOptions struct {
	addr            string
	n0              int
	objects         int
	blocks          int
	round           time.Duration
	redundancy      string
	utilization     float64
	mailbox         int
	timeout         time.Duration
	drain           time.Duration
	dataDir         string
	checkpointEvery int
	debugAddr       string
	replAddr        string
	binAddr         string
	bits            uint
	eps             float64
	payloadDir      string
	blockBytes      int64
	streamBuffer    int
	streamEvict     int
}

func cmdServe(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(w)
	var opts serveOptions
	fs.StringVar(&opts.addr, "addr", "127.0.0.1:8080", "listen address")
	fs.IntVar(&opts.n0, "n0", 8, "initial disk count")
	fs.IntVar(&opts.objects, "objects", 12, "number of objects (0 = empty catalog, e.g. to join a cluster as a fresh shard)")
	fs.IntVar(&opts.blocks, "blocks", 600, "blocks per object")
	fs.DurationVar(&opts.round, "round", 100*time.Millisecond, "round period while a stream plays or nothing is pending; a drain or rebuild on an idle array runs its rounds back to back")
	fs.StringVar(&opts.redundancy, "redundancy", "none", "protection scheme: none | mirror | parity")
	fs.Float64Var(&opts.utilization, "utilization", 0.8, "admission-control utilization target in (0,1]")
	fs.IntVar(&opts.mailbox, "mailbox", 64, "control-plane mailbox depth")
	fs.DurationVar(&opts.timeout, "timeout", 5*time.Second, "per-request deadline")
	fs.DurationVar(&opts.drain, "drain", 30*time.Second, "graceful drain budget on shutdown")
	fs.StringVar(&opts.dataDir, "data-dir", "", "durable state directory (journal + checkpoints); empty = memory-only")
	fs.IntVar(&opts.checkpointEvery, "checkpoint-every", 1024, "journal events between automatic checkpoints")
	fs.StringVar(&opts.debugAddr, "debug-addr", "", "debug listen address serving /metrics and /debug/pprof (empty = off)")
	fs.StringVar(&opts.replAddr, "repl-addr", "", "replication listen address streaming the journal to followers (requires -data-dir; empty = off)")
	fs.StringVar(&opts.binAddr, "bin-addr", "", "binary lookup listen address speaking the wire protocol in docs/PROTOCOL.md (empty = off)")
	fs.UintVar(&opts.bits, "bits", 64, "generator width b; below 64 enables Section 4.3 budget tracking")
	fs.Float64Var(&opts.eps, "eps", 0.05, "unfairness tolerance ε for the randomness budget (used with -bits < 64)")
	fs.StringVar(&opts.payloadDir, "payload-dir", "", "per-disk segment store root carrying real block bytes; empty = metadata-only")
	fs.Int64Var(&opts.blockBytes, "block-bytes", 0, "block size in bytes (0 = server default; smaller blocks make -payload-dir cheap to try)")
	fs.IntVar(&opts.streamBuffer, "stream-buffer", 0, "per-session chunk buffer for GET /v1/sessions/{id}/stream (0 = default 4)")
	fs.IntVar(&opts.streamEvict, "stream-evict-after", 0, "consecutive deadline misses before a slow streaming client is evicted (0 = default 8)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// SIGINT/SIGTERM begin the graceful drain; a second signal aborts.
	stop := make(chan struct{})
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		<-sigs
		close(stop)
	}()
	return serveGateway(opts, w, nil, stop)
}

// parseRedundancy maps the flag spelling to the cm scheme.
func parseRedundancy(name string) (cm.Redundancy, error) {
	switch name {
	case "none":
		return cm.RedundancyNone, nil
	case "mirror":
		return cm.RedundancyMirror, nil
	case "parity":
		return cm.RedundancyParity, nil
	default:
		return 0, fmt.Errorf("redundancy %q: want none, mirror, or parity", name)
	}
}

// defaultX0 is the access function every durable-state command must agree
// on: X0 chains are regenerated from object seeds on recovery, so the same
// generator family has to be used when the journal is replayed.
func defaultX0() placement.X0Func {
	return placement.NewX0Func(func(seed uint64) prng.Source { return prng.NewSplitMix64(seed) })
}

// buildLoadedServer assembles a SCADDAR-placed server with a synthetic
// library loaded — the common prologue of serve, simulate, and drill. bits
// of 0 or 64 means the full-width generator; anything narrower truncates
// the X0 family so the Section 4.3 budget arithmetic is meaningful.
func buildLoadedServer(n0, objects, blocks int, bits uint, mutate func(*cm.Config)) (*cm.Server, []workload.Object, error) {
	x0 := defaultX0()
	if bits != 0 && bits < 64 {
		x0 = placement.NewX0Func(func(seed uint64) prng.Source {
			return prng.Truncate(prng.NewSplitMix64(seed), bits)
		})
	}
	strat, err := placement.NewScaddar(n0, x0)
	if err != nil {
		return nil, nil, err
	}
	if bits != 0 && bits < 64 {
		if err := strat.SetBits(bits); err != nil {
			return nil, nil, err
		}
	}
	cfg := cm.DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := cm.NewServer(cfg, strat)
	if err != nil {
		return nil, nil, err
	}
	if objects == 0 {
		// An empty catalog: objects arrive later over the admin API — the
		// shape a gateway needs to join a cluster as a fresh shard.
		return srv, nil, nil
	}
	lib, err := workload.Library(workload.LibraryConfig{
		Objects: objects, MinBlocks: blocks, MaxBlocks: blocks,
		BlockBytes: cfg.BlockBytes, BitrateBitsPerSec: 4 << 20, SeedBase: 42,
	})
	if err != nil {
		return nil, nil, err
	}
	for _, obj := range lib {
		if err := srv.AddObject(obj); err != nil {
			return nil, nil, err
		}
	}
	return srv, lib, nil
}

// serveGateway builds the server, wraps it in a gateway, and serves HTTP
// until stop closes; then it drains sessions gracefully and exits. If ready
// is non-nil it receives the bound address once listening (used by tests
// and by -addr with port 0).
func serveGateway(opts serveOptions, w io.Writer, ready func(addr string), stop <-chan struct{}) error {
	red, err := parseRedundancy(opts.redundancy)
	if err != nil {
		return err
	}
	if opts.bits == 0 {
		opts.bits = 64
	}
	if opts.bits > 64 {
		return fmt.Errorf("bits %d outside [1,64]", opts.bits)
	}
	if opts.dataDir != "" && opts.bits != 64 {
		return fmt.Errorf("-bits %d is incompatible with -data-dir: recovery regenerates X0 chains with the full-width generator family", opts.bits)
	}
	if opts.replAddr != "" && opts.dataDir == "" {
		return fmt.Errorf("-repl-addr requires -data-dir: followers stream the durable journal")
	}

	// With -data-dir the server's state lives in a durable store: an
	// existing journal is recovered (the library flags are ignored — the
	// journal is the authority), a fresh directory is bootstrapped from
	// the synthetic library and journals everything from then on.
	// The registry and the span ring exist before the store recovers, so that
	// recovery counts and retraces the events it replays into what
	// /v1/metrics and /v1/trace will serve.
	reg := obs.NewRegistry()
	ring := obs.NewRing(gateway.TraceSpans)
	var st *store.Store
	var srv *cm.Server
	if opts.dataDir != "" {
		st, err = store.Open(store.Config{Dir: opts.dataDir})
		if err != nil {
			return err
		}
		defer st.Close()
		st.Observe(reg)
		st.SetTraceRing(ring)
	}
	if st != nil && st.HasState() {
		var info *store.RecoveryInfo
		srv, info, err = st.Recover(defaultX0())
		if err != nil {
			return fmt.Errorf("recover %s: %w", opts.dataDir, err)
		}
		fmt.Fprintf(w, "serve: recovered %s: checkpoint LSN %d, %d events replayed (library flags ignored)\n",
			opts.dataDir, info.CheckpointLSN, info.ReplayedEvents)
		if info.TornTail {
			fmt.Fprintf(w, "serve: journal tail truncated: %s (%d bytes dropped)\n",
				info.TornReason, info.TruncatedBytes)
		}
	} else {
		srv, _, err = buildLoadedServer(opts.n0, opts.objects, opts.blocks, opts.bits, func(c *cm.Config) {
			c.Redundancy = red
			if opts.utilization > 0 {
				c.Utilization = opts.utilization
			}
			if opts.blockBytes > 0 {
				c.BlockBytes = opts.blockBytes
			}
			if opts.bits < 64 {
				c.GeneratorBits = opts.bits
				c.Tolerance = opts.eps
			}
		})
		if err != nil {
			return err
		}
		if st != nil {
			if err := st.Bootstrap(srv); err != nil {
				return fmt.Errorf("bootstrap %s: %w", opts.dataDir, err)
			}
			fmt.Fprintf(w, "serve: bootstrapped %s at LSN %d\n", opts.dataDir, st.LSN())
		}
	}
	// With -payload-dir every disk gets a real segment store: ingest writes
	// actual bytes, migrations and rebuilds move them, and streaming sessions
	// serve them. Attach after recovery so the startup reconcile can GC
	// orphan payloads and re-materialize missing ones against the recovered
	// catalog (the metadata journal is the system of record) — first whole
	// directories: one whose disk the recovered array does not have was left
	// by a scaling operation the journal never saw, or saw end.
	if opts.payloadDir != "" {
		mgr, err := dataplane.NewManager(opts.payloadDir, dataplane.Options{})
		if err != nil {
			return err
		}
		defer mgr.Close()
		keep := make([]int, srv.N())
		for i := range keep {
			d, err := srv.Array().Disk(i)
			if err != nil {
				return err
			}
			keep[i] = d.ID()
		}
		if err := mgr.Retain(keep); err != nil {
			return err
		}
		if err := srv.AttachPayloads(mgr.Factory(), dataplane.SeededContent); err != nil {
			return err
		}
		fmt.Fprintf(w, "serve: payload stores at %s (%d bytes live)\n", opts.payloadDir, mgr.LiveBytes())
	}
	// Snapshot the banner facts before the gateway's owner goroutine takes
	// over the server.
	disks, objects, blocks := srv.N(), srv.Objects(), srv.TotalBlocks()
	factory := func(seed uint64) prng.Source { return prng.NewSplitMix64(seed) }
	if opts.bits < 64 {
		factory = func(seed uint64) prng.Source { return prng.Truncate(prng.NewSplitMix64(seed), opts.bits) }
	}
	// The replication leader shares the gateway's metrics registry so one
	// /metrics scrape covers serving and shipping.
	var ldr *repl.Leader
	if opts.replAddr != "" {
		ldr, err = repl.NewLeader(repl.LeaderConfig{
			Store:    st,
			Registry: reg,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(w, format+"\n", args...)
			},
		})
		if err != nil {
			return err
		}
		rln, err := net.Listen("tcp", opts.replAddr)
		if err != nil {
			return err
		}
		ldr.Serve(rln)
		defer ldr.Close()
		fmt.Fprintf(w, "serve: replication listening on %s\n", rln.Addr())
	}

	g, err := gateway.New(srv, gateway.Config{
		Factory:          factory,
		Round:            opts.round,
		MailboxDepth:     opts.mailbox,
		RequestTimeout:   opts.timeout,
		Store:            st,
		CheckpointEvery:  opts.checkpointEvery,
		Registry:         reg,
		TraceRing:        ring,
		ReplLeader:       ldr,
		StreamBuffer:     opts.streamBuffer,
		StreamEvictAfter: opts.streamEvict,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(w, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	defer g.Close()

	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return err
	}

	// The binary lookup listener serves the same locator snapshot as the
	// HTTP read path, minus the HTTP overhead (docs/PROTOCOL.md). The
	// gateway shuts it down with itself and advertises the bound address
	// in GET /v1/status so loadgen -bin can discover it.
	if opts.binAddr != "" {
		bln, err := net.Listen("tcp", opts.binAddr)
		if err != nil {
			return err
		}
		if _, err := g.ServeBin(bln); err != nil {
			return err
		}
		fmt.Fprintf(w, "serve: binary lookups listening on %s\n", bln.Addr())
	}

	// The debug listener is deliberately separate from the service address:
	// pprof and raw metrics should be bindable to localhost while the data
	// path faces the network.
	if opts.debugAddr != "" {
		dln, err := net.Listen("tcp", opts.debugAddr)
		if err != nil {
			return err
		}
		dmux := http.NewServeMux()
		dmux.HandleFunc("/metrics", func(rw http.ResponseWriter, _ *http.Request) {
			rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			g.Registry().WritePrometheus(rw)
		})
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ds := &http.Server{Handler: dmux}
		go ds.Serve(dln)
		defer ds.Close()
		fmt.Fprintf(w, "serve: debug listening on http://%s (/metrics, /debug/pprof)\n", dln.Addr())
	}

	fmt.Fprintf(w, "serve: %d disks, %d objects, %d blocks, round %s\n",
		disks, objects, blocks, opts.round)
	fmt.Fprintf(w, "serve: listening on http://%s (Ctrl-C to drain and exit)\n", ln.Addr())
	if ready != nil {
		ready(ln.Addr().String())
	}

	hs, serveErr := startHTTP(ln, g.Handler())

	select {
	case err := <-serveErr:
		return err
	case <-stop:
	}

	// Graceful exit: drain sessions first (new ones are refused with 503
	// while existing ones play out), then stop accepting connections.
	fmt.Fprintf(w, "serve: draining (budget %s)...\n", opts.drain)
	deadline := time.Now().Add(opts.drain)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	drainErr := g.Shutdown(ctx)
	if err := shutdownHTTP(hs, time.Until(deadline)); err != nil && drainErr == nil {
		drainErr = err
	}
	gs := g.Status()
	fmt.Fprintf(w, "serve: done after %d rounds; %d sessions served, %d rejected, %d lookups\n",
		gs.Rounds, gs.Gateway.SessionsOpened, gs.Gateway.SessionsRejected, gs.Gateway.Reads)
	if drainErr != nil {
		return fmt.Errorf("drain: %w", drainErr)
	}
	return nil
}
