package cli

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncWriter guards a strings.Builder so the test can read output while the
// command goroutine is still writing.
type syncWriter struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncWriter) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestFollowBadFlags(t *testing.T) {
	var out strings.Builder
	if err := cmdFollow(nil, &out); err == nil || !strings.Contains(err.Error(), "-leader") {
		t.Fatalf("missing -leader accepted: %v", err)
	}
}

// TestServeReplAndFollow is the replication demo in miniature: a durable
// leader with -repl-addr, a follower tailing it, and replica reads served
// over HTTP that agree with the leader's.
func TestServeReplAndFollow(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end replication test skipped in -short mode")
	}
	opts := serveOptions{
		addr:        "127.0.0.1:0",
		n0:          4,
		objects:     6,
		blocks:      40,
		round:       2 * time.Millisecond,
		redundancy:  "none",
		utilization: 0.8,
		mailbox:     64,
		timeout:     5 * time.Second,
		drain:       30 * time.Second,
		dataDir:     t.TempDir(),
		replAddr:    "127.0.0.1:0",
	}
	addrCh := make(chan string, 1)
	stop := make(chan struct{})
	serveDone := make(chan error, 1)
	serveOut := &syncWriter{}
	go func() {
		serveDone <- serveGateway(opts, serveOut, func(a string) { addrCh <- a }, stop)
	}()
	var gwAddr string
	select {
	case gwAddr = <-addrCh:
	case err := <-serveDone:
		t.Fatalf("serve exited early: %v\n%s", err, serveOut.String())
	case <-time.After(10 * time.Second):
		t.Fatal("serve never became ready")
	}

	// The replication banner is printed before the HTTP listener comes up,
	// so once ready fired the address is in the output.
	var replAddr string
	for _, line := range strings.Split(serveOut.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "serve: replication listening on "); ok {
			replAddr = strings.TrimSpace(rest)
		}
	}
	if replAddr == "" {
		t.Fatalf("no replication banner in serve output:\n%s", serveOut.String())
	}

	fstop := make(chan struct{})
	followDone := make(chan error, 1)
	faddrCh := make(chan string, 1)
	followOut := &syncWriter{}
	go func() {
		followDone <- runFollower(followOptions{
			leader: replAddr,
			addr:   "127.0.0.1:0",
			quiet:  true,
		}, followOut, func(a string) { faddrCh <- a }, fstop)
	}()
	var fAddr string
	select {
	case fAddr = <-faddrCh:
	case err := <-followDone:
		t.Fatalf("follow exited early: %v\n%s", err, followOut.String())
	case <-time.After(10 * time.Second):
		t.Fatal("follow never became ready")
	}

	// Wait for the replica to bootstrap, then read through it.
	getJSON := func(url string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		defer resp.Body.Close()
		body := map[string]any{}
		_ = json.NewDecoder(resp.Body).Decode(&body)
		return resp.StatusCode, body
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, _ := getJSON(fmt.Sprintf("http://%s/v1/healthz", fAddr))
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never became healthy\n%s", followOut.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	code, replicaRead := getJSON(fmt.Sprintf("http://%s/v1/objects/0/blocks/3", fAddr))
	if code != http.StatusOK {
		t.Fatalf("replica read: %d %v", code, replicaRead)
	}
	code, leaderRead := getJSON(fmt.Sprintf("http://%s/v1/objects/0/blocks/3", gwAddr))
	if code != http.StatusOK {
		t.Fatalf("leader read: %d %v", code, leaderRead)
	}
	if replicaRead["disk"] != leaderRead["disk"] {
		t.Fatalf("replica locates disk %v, leader %v", replicaRead["disk"], leaderRead["disk"])
	}

	// The leader gateway reports its follower connections.
	code, repl := getJSON(fmt.Sprintf("http://%s/v1/replication", gwAddr))
	if code != http.StatusOK || repl["role"] != "leader" {
		t.Fatalf("leader /v1/replication: %d %v", code, repl)
	}

	// Loadgen spreads reads across leader and replica and reports the
	// replication lag percentiles it sampled.
	var lgOut strings.Builder
	if err := runLoadgen(loadgenOptions{
		addr:     "http://" + gwAddr,
		follower: "http://" + fAddr,
		clients:  2,
		duration: 300 * time.Millisecond,
		zipf:     0.729,
		seed:     7,
		perSess:  8,
	}, &lgOut); err != nil {
		t.Fatalf("loadgen: %v\n%s", err, lgOut.String())
	}
	for _, want := range []string{"replication lag (events)", "retries after 503"} {
		if !strings.Contains(lgOut.String(), want) {
			t.Errorf("loadgen output missing %q:\n%s", want, lgOut.String())
		}
	}

	close(fstop)
	if err := <-followDone; err != nil {
		t.Fatalf("follow: %v\n%s", err, followOut.String())
	}
	if !strings.Contains(followOut.String(), "follow: done at LSN") {
		t.Errorf("follow output unexpected:\n%s", followOut.String())
	}
	close(stop)
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v\n%s", err, serveOut.String())
	}
}
