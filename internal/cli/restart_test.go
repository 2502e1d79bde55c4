package cli

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"scaddar/internal/obs"
)

// getBody fetches url and returns the body of a 200 reply.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, %v\n%s", url, resp.StatusCode, err, body)
	}
	return body
}

// scaleUpAndDrain adds one disk over HTTP and waits for the migration to end.
func scaleUpAndDrain(t *testing.T, base string) {
	t.Helper()
	resp, err := http.Post(base+"/v1/scale", "application/json", strings.NewReader(`{"add":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("scale: status %d", resp.StatusCode)
	}
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var st struct{ Reorganizing bool }
		if err := json.Unmarshal(getBody(t, base+"/v1/status"), &st); err != nil {
			t.Fatal(err)
		}
		if !st.Reorganizing {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("scale-up never drained")
		}
	}
}

// TestShutdownHTTP pins what ends a server cleanly. A connection that never
// sent a byte — the keep-alive socket a load generator dialed and did not
// use, which net/http's Shutdown waits 5 s on — is not an error when the
// budget ends, at any budget; a request still inside its handler is.
func TestShutdownHTTP(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs, serveErr := startHTTP(ln, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
	}))
	idle, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if err := shutdownHTTP(hs, 100*time.Millisecond); err != nil {
		t.Fatalf("shutdown with one connection that never carried a request: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v", err)
	}

	ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs, _ = startHTTP(ln, hs.Handler)
	go func() {
		if resp, err := http.Get("http://" + ln.Addr().String()); err == nil {
			resp.Body.Close()
		}
	}()
	<-entered
	err = shutdownHTTP(hs, 100*time.Millisecond)
	close(release)
	if err == nil || !strings.Contains(err.Error(), "1 requests still in flight") {
		t.Fatalf("shutdown with a request in its handler: %v, want an error counting it", err)
	}
}

// TestServeRetracesRecovery restarts serve over a data directory holding a
// journaled scale-up: the recovered server counts the events it replayed in
// store_replayed_events_total and retraces them, Round = -1, into the ring
// /v1/trace serves, ahead of anything the new run appends.
func TestServeRetracesRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end serve test skipped in -short mode")
	}
	opts := serveOptions{
		addr: "127.0.0.1:0", n0: 4, objects: 3, blocks: 50, round: 2 * time.Millisecond,
		redundancy: "none", utilization: 0.8, mailbox: 64, timeout: 5 * time.Second, drain: 30 * time.Second,
		dataDir: filepath.Join(t.TempDir(), "state"), checkpointEvery: 1 << 20,
	}
	var first strings.Builder
	addr, shutdown := startServe(t, opts, &first)
	scaleUpAndDrain(t, "http://"+addr)
	shutdown()

	var second strings.Builder
	addr, shutdown = startServe(t, opts, &second)
	defer shutdown()
	var replayed int
	banner := second.String()
	if i := strings.Index(banner, "checkpoint LSN"); i < 0 {
		t.Fatalf("second boot did not recover:\n%s", banner)
	} else if _, err := fmt.Sscanf(banner[i:], "checkpoint LSN 0, %d events replayed", &replayed); err != nil || replayed == 0 {
		t.Fatalf("no replayed events to retrace (%v):\n%s", err, banner)
	}
	samples, err := obs.ParseText(bytes.NewReader(getBody(t, "http://"+addr+"/v1/metrics")))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := obs.NewMetricSet(samples).Value("store_replayed_events_total"); int(got) != replayed {
		t.Errorf("store_replayed_events_total = %v, recovery replayed %d", got, replayed)
	}
	var tr struct{ Spans []obs.Span }
	if err := json.Unmarshal(getBody(t, "http://"+addr+"/v1/trace"), &tr); err != nil {
		t.Fatal(err)
	}
	retraced := 0
	for i, sp := range tr.Spans {
		if sp.Round != -1 {
			continue
		}
		if retraced++; i >= replayed {
			t.Fatalf("span %d is a replay span behind live ones: %+v", i, sp)
		}
	}
	if retraced != replayed {
		t.Errorf("/v1/trace holds %d replay spans, recovery replayed %d", retraced, replayed)
	}
}

// TestServePayloadDirectoryGC starts serve over a payload root holding the
// directory of a disk the array does not have — what a crash around a scaling
// operation leaves — and finds it gone, with every live disk's files as the
// previous run left them.
func TestServePayloadDirectoryGC(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end serve test skipped in -short mode")
	}
	root := t.TempDir()
	opts := serveOptions{
		addr: "127.0.0.1:0", n0: 3, objects: 2, blocks: 20, blockBytes: 512, round: 2 * time.Millisecond,
		redundancy: "none", utilization: 0.8, mailbox: 64, timeout: 5 * time.Second, drain: 30 * time.Second,
		dataDir: filepath.Join(root, "state"), payloadDir: filepath.Join(root, "payload"),
	}
	var out strings.Builder
	_, shutdown := startServe(t, opts, &out)
	shutdown()
	listing := func() map[string]int64 {
		files := map[string]int64{}
		err := filepath.Walk(opts.payloadDir, func(path string, fi os.FileInfo, err error) error {
			if err == nil && strings.HasSuffix(path, ".blk") { // index.idx is consumed by the open
				files[path] = fi.Size()
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	before := listing()
	if len(before) < opts.n0 {
		t.Fatalf("first run left %d payload files for %d disks", len(before), opts.n0)
	}
	stray := filepath.Join(opts.payloadDir, "disk-00099")
	if err := os.MkdirAll(stray, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stray, "seg-0000000000000001.blk"), []byte("left behind"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, shutdown = startServe(t, opts, &out)
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Errorf("stray payload directory survived the start: %v", err)
	}
	for path, size := range before {
		if fi, err := os.Stat(path); err != nil || fi.Size() < size {
			t.Errorf("live payload file %s: %v, want at least the %d bytes it had", path, err, size)
		}
	}
	shutdown()
}
