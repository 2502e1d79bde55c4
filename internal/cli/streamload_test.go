package cli

import (
	"strings"
	"testing"
	"time"
)

// TestServeAndStreamLoadgen boots a gateway with real payload stores and
// drives the streaming load generator against it through a mid-run
// scale-up: sessions must play, every chunk must verify against the oracle,
// and the report must carry the pacing percentiles split by the reorg
// window.
func TestServeAndStreamLoadgen(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end streaming test skipped in -short mode")
	}
	opts := serveOptions{
		addr:        "127.0.0.1:0",
		n0:          6,
		objects:     8,
		blocks:      120,
		round:       2 * time.Millisecond,
		redundancy:  "mirror",
		utilization: 0.8,
		mailbox:     64,
		timeout:     5 * time.Second,
		drain:       30 * time.Second,
		payloadDir:  t.TempDir(),
		blockBytes:  4 << 10,
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
		stream:   true,
		addr:     "http://" + addr,
		clients:  6,
		duration: 500 * time.Millisecond,
		zipf:     0.729,
		seed:     7,
		scaleAt:  100 * time.Millisecond,
		add:      2,
	}, &lgOut)
	if err != nil {
		t.Fatalf("stream loadgen: %v\n%s", err, lgOut.String())
	}
	out := lgOut.String()
	for _, want := range []string{
		"streaming clients",
		"scale-up +2 accepted",
		"reorganization drained in",
		"chunk gap overall:",
		"during reorg:",
		"frame errors 0",
		"oracle mismatches 0",
		"locate errors 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stream loadgen output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "INTEGRITY FAILURES") {
		t.Errorf("integrity failures reported:\n%s", out)
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
	if !strings.Contains(serveOut.String(), "payload stores at") {
		t.Errorf("serve banner missing payload line:\n%s", serveOut.String())
	}
}
