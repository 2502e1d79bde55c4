package cli

import (
	"strings"
	"testing"
	"time"
)

// TestServeAndLoadgen is the end-to-end demo in miniature: boot the gateway
// on an ephemeral port, run the load generator against it with a mid-run
// scale-up over HTTP, and check that the run reports percentile latency and
// a drained reorganization, then that the server drains cleanly.
func TestServeAndLoadgen(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end serve test skipped in -short mode")
	}
	opts := serveOptions{
		addr:        "127.0.0.1:0",
		n0:          6,
		objects:     8,
		blocks:      200,
		round:       2 * time.Millisecond,
		redundancy:  "mirror",
		utilization: 0.8,
		mailbox:     64,
		timeout:     5 * time.Second,
		drain:       30 * time.Second,
	}
	addrCh := make(chan string, 1)
	stop := make(chan struct{})
	serveDone := make(chan error, 1)
	var serveOut strings.Builder
	go func() {
		serveDone <- serveGateway(opts, &serveOut, func(a string) { addrCh <- a }, stop)
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case err := <-serveDone:
		t.Fatalf("serve exited early: %v\n%s", err, serveOut.String())
	case <-time.After(10 * time.Second):
		t.Fatal("serve never became ready")
	}

	var lgOut strings.Builder
	err := runLoadgen(loadgenOptions{
		addr:     "http://" + addr,
		clients:  4,
		duration: 400 * time.Millisecond,
		zipf:     0.729,
		seed:     7,
		scaleAt:  100 * time.Millisecond,
		add:      2,
		perSess:  16,
		// The dashboard reports while the scale driver does: under -race
		// this is the check that only the engine writes to lgOut.
		dash: 5 * time.Millisecond,
	}, &lgOut)
	if err != nil {
		t.Fatalf("loadgen: %v\n%s", err, lgOut.String())
	}
	out := lgOut.String()
	for _, want := range []string{
		"dash t=",
		"scale-up +2 accepted",
		"reorganization drained in",
		"read latency overall:",
		"during reorg:",
		"p99",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("loadgen output missing %q:\n%s", want, out)
		}
	}

	close(stop)
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("serve: %v\n%s", err, serveOut.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatal("serve did not drain")
	}
	sout := serveOut.String()
	if !strings.Contains(sout, "listening on http://") || !strings.Contains(sout, "serve: done after") {
		t.Errorf("serve output unexpected:\n%s", sout)
	}
}

// TestServeAndBinLoadgen boots a gateway with a binary lookup listener and
// runs the loadgen -bin comparison against it: all three phases must
// report, the binary endpoint must be discovered through /v1/status, and
// no phase may see lookup errors.
func TestServeAndBinLoadgen(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end serve test skipped in -short mode")
	}
	opts := serveOptions{
		addr:        "127.0.0.1:0",
		binAddr:     "127.0.0.1:0",
		n0:          6,
		objects:     6,
		blocks:      120,
		round:       2 * time.Millisecond,
		redundancy:  "none",
		utilization: 0.8,
		mailbox:     64,
		timeout:     5 * time.Second,
		drain:       30 * time.Second,
	}
	addrCh := make(chan string, 1)
	stop := make(chan struct{})
	serveDone := make(chan error, 1)
	var serveOut strings.Builder
	go func() {
		serveDone <- serveGateway(opts, &serveOut, func(a string) { addrCh <- a }, stop)
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case err := <-serveDone:
		t.Fatalf("serve exited early: %v\n%s", err, serveOut.String())
	case <-time.After(10 * time.Second):
		t.Fatal("serve never became ready")
	}

	var lgOut strings.Builder
	err := runLoadgen(loadgenOptions{
		bin:      true,
		addr:     "http://" + addr,
		clients:  3,
		duration: 250 * time.Millisecond,
		zipf:     0.729,
		seed:     7,
		batch:    32,
	}, &lgOut)
	if err != nil {
		t.Fatalf("loadgen -bin: %v\n%s", err, lgOut.String())
	}
	out := lgOut.String()
	for _, want := range []string{"http:", "bin single:", "bin batch32:", "vs HTTP:"} {
		if !strings.Contains(out, want) {
			t.Errorf("loadgen -bin output missing %q:\n%s", want, out)
		}
	}
	if got := strings.Count(out, "errors 0"); got != 3 {
		t.Errorf("expected 3 error-free phases, got %d:\n%s", got, out)
	}

	close(stop)
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("serve: %v\n%s", err, serveOut.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatal("serve did not drain")
	}
	if !strings.Contains(serveOut.String(), "binary lookups listening on") {
		t.Errorf("serve output missing the binary listener banner:\n%s", serveOut.String())
	}
}

// TestServeBadFlags covers the option validation paths without booting.
func TestServeBadFlags(t *testing.T) {
	var out strings.Builder
	if err := serveGateway(serveOptions{redundancy: "raid6"}, &out, nil, nil); err == nil {
		t.Error("bad redundancy accepted")
	}
	if err := runLoadgen(loadgenOptions{bin: true, clients: 0}, &out); err == nil {
		t.Error("bin: zero clients accepted")
	}
	if err := runLoadgen(loadgenOptions{bin: true, clients: 1, duration: 0}, &out); err == nil {
		t.Error("bin: zero duration accepted")
	}
	if err := runLoadgen(loadgenOptions{bin: true, clients: 1, duration: time.Second, batch: 0}, &out); err == nil {
		t.Error("bin: zero batch accepted")
	}
	if err := runLoadgen(loadgenOptions{clients: 0}, &out); err == nil {
		t.Error("zero clients accepted")
	}
	if err := runLoadgen(loadgenOptions{clients: 1, duration: 0}, &out); err == nil {
		t.Error("zero duration accepted")
	}
	if err := runLoadgen(loadgenOptions{clients: 1, duration: time.Second, addr: "http://127.0.0.1:1"}, &out); err == nil {
		t.Error("unreachable gateway accepted")
	}
	// A flag the chosen mode would silently ignore is refused by name, before
	// anything is contacted; -bin -stream stays the error it was.
	for _, tc := range []struct{ args, want string }{
		{"-deadline 1s", "-deadline is not used in lookup mode"},
		{"-stream -dash 1s", "-dash is not used in -stream mode"},
		{"-bin -scale-at 1s", "-scale-at is not used in -bin mode"},
		{"-bin -stream", "mutually exclusive"},
	} {
		err := cmdLoadgen(strings.Fields(tc.args+" -addr http://127.0.0.1:1"), &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("loadgen %s: error %v, want %q", tc.args, err, tc.want)
		}
	}
}
