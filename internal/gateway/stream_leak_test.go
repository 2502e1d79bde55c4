package gateway

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"scaddar/internal/bufpool"
	"scaddar/internal/dataplane"
)

// drainToEnd reads a stream response until its end frame and returns the
// close reason.
func drainToEnd(t *testing.T, resp *http.Response) dataplane.CloseReason {
	t.Helper()
	br := bufio.NewReader(resp.Body)
	for {
		f, err := dataplane.ReadFrame(br)
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
		if f.End {
			return f.Reason
		}
	}
}

// dyingWriter is a streaming http.ResponseWriter whose connection dies at a
// chosen Write: dies is asked before each one. Before it fails it waits for
// the round driver to put five more chunks behind the one the handler has
// in hand, so the failure always finds chunks on both sides of the edge.
type dyingWriter struct {
	t       *testing.T
	g       *Gateway
	header  http.Header
	before  int64 // the gateway's StreamChunks when the session attached
	idle    int64 // bufpool.InUse with nothing in flight
	writes  int   // Writes accepted: frame k's header is Write 2k, its payload 2k+1
	flushes int   // Flush calls: the first sends the response headers
	dies    func(*dyingWriter) bool
	died    bool
}

func (w *dyingWriter) Header() http.Header { return w.header }
func (w *dyingWriter) WriteHeader(int)     {}
func (w *dyingWriter) Flush()              { w.flushes++ }

func (w *dyingWriter) Write(p []byte) (int, error) {
	if !w.dies(w) {
		w.writes++
		return len(p), nil
	}
	received := w.before + int64(w.writes/2) + 1
	// The chunk in hand and the five behind it pin six pooled buffers, and
	// /v1/metrics says so once the round that delivered the last has ended.
	waitStatus(w.t, w.g, "five chunks buffered behind the failing write, all six in the pool gauges", func(st Status) bool {
		if st.Gateway.StreamChunks-received < 5 {
			return false
		}
		ms := scrape(w.t, w.g.Handler())
		buffers, _ := ms.Value("bufpool_in_use_buffers")
		pinned, _ := ms.Value("bufpool_in_use_bytes")
		return buffers >= float64(w.idle+6) && pinned >= 6*4096
	})
	w.died = true
	return 0, errors.New("connection reset by peer")
}

// TestStreamBufferLifecycle pins the payload buffer ownership chain: after
// exercising every way a chunk's life can end — written to a client and
// released, dropped on a deadline miss, abandoned in the buffer when the
// session is evicted, swept when the consumer disconnects mid-stream, the
// paused-open attach, and in hand or in the channel when a by-reference
// write fails — the pool's in-use gauge must return to its baseline. Any
// other outcome means some path dropped (or double-kept) a reference.
func TestStreamBufferLifecycle(t *testing.T) {
	base := bufpool.InUse()

	// Short objects for the paths that play to completion.
	_, tsA := newStreamGateway(t, 4, 2, 16, nil)
	snapA := fetchWireSnapshot(t, tsA.URL)

	// Full playback: every chunk is framed, flushed, and released.
	id := openSession(t, tsA.URL, snapA.Objects[0].ID)
	resp, err := http.Get(fmt.Sprintf("%s/v1/sessions/%d/stream", tsA.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	if reason := drainToEnd(t, resp); reason != dataplane.CloseDone {
		t.Fatalf("full playback ended %v, want done", reason)
	}
	resp.Body.Close()

	// Paused-open: the session exists with no consumer before the stream
	// attach resumes it; nothing may be delivered (or leaked) in between.
	paused := openPausedSession(t, tsA.URL, snapA.Objects[1].ID)
	resp, err = http.Get(fmt.Sprintf("%s/v1/sessions/%d/stream", tsA.URL, paused))
	if err != nil {
		t.Fatal(err)
	}
	if reason := drainToEnd(t, resp); reason != dataplane.CloseDone {
		t.Fatalf("paused-open playback ended %v, want done", reason)
	}
	resp.Body.Close()

	// Long objects and a tiny buffer for the paths that abandon mid-stream.
	gB, tsB := newStreamGateway(t, 4, 2, 2000, func(c *Config) {
		c.StreamBuffer = 1
		c.StreamEvictAfter = 4
	})
	snapB := fetchWireSnapshot(t, tsB.URL)

	// Eviction: a consumer that never reads. Once the socket and session
	// buffers fill, every round's chunk is a miss (released by Deliver)
	// until the consecutive-miss limit evicts the session; whatever is
	// still buffered then is swept by the handler's exit.
	idSlow := openSession(t, tsB.URL, snapB.Objects[0].ID)
	respSlow, err := http.Get(fmt.Sprintf("%s/v1/sessions/%d/stream", tsB.URL, idSlow))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, gB, "slow client eviction", func(st Status) bool {
		return st.Gateway.StreamEvictions >= 1
	})
	if reason := drainToEnd(t, respSlow); reason != dataplane.CloseEvicted {
		t.Fatalf("slow stream ended %v, want evicted", reason)
	}
	respSlow.Body.Close()

	// Mid-stream disconnect: read a few frames, then hang up. The handler
	// must stop the server-side stream and release everything it still
	// holds, including chunks buffered between Deliver and the drain loop.
	idGone := openSession(t, tsB.URL, snapB.Objects[1].ID)
	respGone, err := http.Get(fmt.Sprintf("%s/v1/sessions/%d/stream", tsB.URL, idGone))
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(respGone.Body)
	for i := 0; i < 3; i++ {
		if _, err := dataplane.ReadFrame(br); err != nil {
			t.Fatalf("frame %d before disconnect: %v", i, err)
		}
	}
	respGone.Body.Close()
	waitStatus(t, gB, "abandoned streams stopped", func(st Status) bool {
		return st.ActiveStreams == 0
	})

	// A write that fails by reference: one chunk in hand, at least five in
	// the channel. The chunk in hand is released by the emitter, the rest by
	// the handler's exit sweep, each exactly once (an over-release panics on
	// this goroutine), and the server-side stream is stopped before the
	// handler returns.
	gC, tsC := newStreamGateway(t, 4, 3, 2000, func(c *Config) {
		c.StreamBuffer = 8
		c.StreamEvictAfter = 1 << 20 // a full buffer must not end the session first
	})
	snapC := fetchWireSnapshot(t, tsC.URL)
	edges := []struct {
		name string
		dies func(*dyingWriter) bool
	}{
		{"a frame's header", func(w *dyingWriter) bool { return w.writes == 0 }},
		{"a frame's payload", func(w *dyingWriter) bool { return w.writes == 1 }},
		{"the first write after a flushed gather", func(w *dyingWriter) bool { return w.flushes == 2 }},
	}
	for i, edge := range edges {
		id := openPausedSession(t, tsC.URL, snapC.Objects[i].ID)
		w := &dyingWriter{t: t, g: gC, header: http.Header{}, before: gC.Status().Gateway.StreamChunks, idle: base, dies: edge.dies}
		gC.Handler().ServeHTTP(w, httptest.NewRequest("GET", fmt.Sprintf("/v1/sessions/%d/stream", id), nil))
		if !w.died {
			t.Fatalf("write failing on %s: the handler returned after %d writes without reaching it", edge.name, w.writes)
		}
		if n := gC.Status().ActiveStreams; n != 0 {
			t.Fatalf("write failing on %s: %d streams still active after the handler returned", edge.name, n)
		}
	}

	// Quiesce: with no consumers and no playing streams, every pooled
	// buffer must be back in its pool. Poll briefly — the last handler's
	// cleanup and the final round may still be in flight.
	deadline := time.Now().Add(10 * time.Second)
	for bufpool.InUse() != base {
		if time.Now().After(deadline) {
			t.Fatalf("bufpool in-use = %d, want %d: payload buffers leaked", bufpool.InUse(), base)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestAttachedSessionsPinNoPoolMemory pins what an attached session holds
// while nothing is in flight: its channel, and no pooled buffer. 32
// consumers at stream_scaleup's shape (StreamBuffer 16, 64 KiB blocks) under
// a round that never comes leave the pool's gauge where it was; with the
// per-session gather scratch each held one 2 MiB buffer for its lifetime.
func TestAttachedSessionsPinNoPoolMemory(t *testing.T) {
	base := bufpool.InUse()
	_, ts := newStreamGatewayOf(t, 8, 4, 4, 64<<10, func(c *Config) {
		c.Round = time.Hour
		c.StreamBuffer = 16
	})
	snap := fetchWireSnapshot(t, ts.URL)
	for i := 0; i < 32; i++ {
		id := openSession(t, ts.URL, snap.Objects[i%len(snap.Objects)].ID)
		// The response headers are flushed once the consumer is attached.
		resp, err := http.Get(fmt.Sprintf("%s/v1/sessions/%d/stream", ts.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("attach %d: status %d", i, resp.StatusCode)
		}
	}
	if got := bufpool.InUse(); got != base {
		t.Fatalf("32 idle attached sessions hold %d pooled buffers, want 0", got-base)
	}
}

// TestStreamBodyIsTheFramesAndIsCounted reads a whole 5-block session off
// the wire. The body is byte for byte the concatenation of AppendDataFrame
// for each block and AppendEndFrame — emitting by reference changed where
// the bytes come from, not one of them — and gateway_stream_bytes_total
// moved by exactly the body's length: every gather is counted, the last
// one, which carries the end frame, included.
func TestStreamBodyIsTheFramesAndIsCounted(t *testing.T) {
	g, ts := newStreamGateway(t, 4, 1, 5, nil)
	obj := fetchWireSnapshot(t, ts.URL).Objects[0]
	var want []byte
	for i := 0; i < obj.Blocks; i++ {
		want = dataplane.AppendDataFrame(want, i, dataplane.SeededContent(obj.Seed, uint64(i), obj.BlockBytes))
	}
	want = dataplane.AppendEndFrame(want, dataplane.CloseDone)

	before := g.Status().Gateway.StreamBytes
	id := openPausedSession(t, ts.URL, obj.ID)
	resp, err := http.Get(fmt.Sprintf("%s/v1/sessions/%d/stream", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("stream body is %d bytes, differs from the %d bytes of %d data frames and an end frame", len(body), len(want), obj.Blocks)
	}
	if counted := g.Status().Gateway.StreamBytes - before; counted != int64(len(body)) {
		t.Fatalf("gateway_stream_bytes_total moved by %d, the client read %d", counted, len(body))
	}
}
