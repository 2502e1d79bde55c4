package cli

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"scaddar/internal/gateway"
	"scaddar/internal/obs"
	"scaddar/internal/prng"
	"scaddar/internal/repl"
)

// followOptions configures the follow subcommand; a plain struct so tests
// can drive runFollower without a flag set or signals.
type followOptions struct {
	leader string
	addr   string
	maxLag uint64
	quiet  bool
}

func cmdFollow(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("follow", flag.ContinueOnError)
	fs.SetOutput(w)
	var opts followOptions
	fs.StringVar(&opts.leader, "leader", "", "leader replication address (serve -repl-addr) to tail; required")
	fs.StringVar(&opts.addr, "addr", "127.0.0.1:8081", "HTTP listen address for replica reads")
	fs.Uint64Var(&opts.maxLag, "max-lag", 0, "staleness budget in journal events; reads beyond it fail retryably (0 = unbounded)")
	fs.BoolVar(&opts.quiet, "quiet", false, "suppress per-connection replication log lines")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if opts.leader == "" {
		return fmt.Errorf("follow: -leader is required")
	}

	stop := make(chan struct{})
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		<-sigs
		close(stop)
	}()
	return runFollower(opts, w, nil, stop)
}

// runFollower tails the leader's journal and serves epoch-fenced reads over
// HTTP until stop closes. The follower must use the same generator family
// as the leader (the default full-width one): X0 chains and locator
// snapshots are regenerated locally from the shipped events.
func runFollower(opts followOptions, w io.Writer, ready func(addr string), stop <-chan struct{}) error {
	reg := obs.NewRegistry()
	var logf func(string, ...any)
	if !opts.quiet {
		logf = func(format string, args ...any) {
			fmt.Fprintf(w, format+"\n", args...)
		}
	}
	f, err := repl.StartFollower(repl.FollowerConfig{
		Addr:         opts.leader,
		X0:           defaultX0(),
		Factory:      func(seed uint64) prng.Source { return prng.NewSplitMix64(seed) },
		MaxLagEvents: opts.maxLag,
		Registry:     reg,
		Logf:         logf,
	})
	if err != nil {
		return err
	}
	defer f.Close()

	rp, err := gateway.NewReplica(gateway.ReplicaConfig{
		Follower: f,
		Registry: reg,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "follow: tailing %s, serving reads on http://%s (Ctrl-C to exit)\n",
		opts.leader, ln.Addr())
	if ready != nil {
		ready(ln.Addr().String())
	}

	hs, serveErr := startHTTP(ln, rp.Handler())

	select {
	case err := <-serveErr:
		return err
	case <-stop:
	}

	shutErr := shutdownHTTP(hs, 5*time.Second)
	st := f.Status()
	fmt.Fprintf(w, "follow: done at LSN %d epoch %d; %d reconnects, %d snapshots\n",
		st.AppliedLSN, st.Epoch, st.Reconnects, st.Snapshots)
	return shutErr
}
