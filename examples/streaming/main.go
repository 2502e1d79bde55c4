// Streaming: the real data plane end to end — thousands of round-paced
// sessions playing actual bytes through a scale-up and a disk failure drill.
//
// This is the harness behind experiment E19. It boots a gateway whose disks
// carry real per-disk segment stores (internal/dataplane), opens many
// concurrent playback sessions against GET /v1/sessions/{id}/stream, and
// drains every one to completion while the array (1) gains disks in a live
// SCADDAR scale-up and (2) loses and rebuilds a disk. Every delivered chunk
// is verified byte-for-byte against the seeded content oracle — the exact
// bytes ingest wrote — and every inter-chunk gap is recorded, split into
// the before/during/after phases of the maintenance window, so the output
// shows what reorganization does to delivery pacing (the paper's hiccups).
//
// Placement tracking uses the snapshot+delta side channel: all sessions
// share ONE client locator fed by its Follow method (the full snapshot
// once, then long-polls of the delta feed), so the locator cost of a reorg
// is a single subscription, not sessions × blocks lookups.
//
// Sessions talk to the gateway's http.Handler through an in-process pipe
// transport rather than TCP sockets: the handler stack (routing, streaming
// writes, flushes, context cancellation) is exercised unchanged, but the
// harness can hold 10,000 concurrent streams without hitting the file-
// descriptor ceiling. Control requests use the same transport.
//
// Run with: go run ./examples/streaming
// E19 scale: go run ./examples/streaming -sessions 10000 -disks 120 -objects 100 -blocks 24 -round 1s
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"scaddar"
)

var (
	roundD     = flag.Duration("round", 20*time.Millisecond, "wall-clock round period (one chunk per session per round)")
	sessions   = flag.Int("sessions", 240, "concurrent streaming sessions")
	nDisks     = flag.Int("disks", 24, "initial disk count")
	addDisks   = flag.Int("add", 4, "disks added by the mid-run scale-up")
	objects    = flag.Int("objects", 48, "objects in the library")
	blocks     = flag.Int("blocks", 40, "blocks per object (session length in rounds)")
	blockBytes = flag.Int64("block-bytes", 4<<10, "payload bytes per block")
	buffer     = flag.Int("buffer", 8, "per-session chunk buffer (rounds)")
	evictAfter = flag.Int("evict-after", 120, "consecutive missed rounds before eviction")
	mailbox    = flag.Int("mailbox", 1024, "gateway command mailbox depth (sized for the open stampede)")
)

// phase labels the maintenance window for gap attribution.
const (
	phaseBefore = iota
	phaseDuring
	phaseAfter
)

func main() {
	flag.Parse()

	// Server with a real data plane: segment stores under every disk,
	// mirrored redundancy so the failure drill degrades instead of losing
	// blocks, and the seeded oracle as the single source of payload truth.
	factory := func(seed uint64) scaddar.Source { return scaddar.NewSplitMix64(seed) }
	strat, err := scaddar.NewScaddarStrategy(*nDisks, scaddar.NewX0Func(factory))
	if err != nil {
		log.Fatal(err)
	}
	cfg := scaddar.DefaultServerConfig()
	cfg.Redundancy = scaddar.RedundancyMirror
	cfg.BlockBytes = *blockBytes
	srv, err := scaddar.NewServer(cfg, strat)
	if err != nil {
		log.Fatal(err)
	}
	payloadDir, err := os.MkdirTemp("", "scaddar-streaming-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(payloadDir)
	mgr, err := scaddar.NewPayloadManager(payloadDir, scaddar.PayloadOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer mgr.Close()
	if err := srv.AttachPayloads(mgr.Factory(), scaddar.SeededContent); err != nil {
		log.Fatal(err)
	}
	libCfg := scaddar.DefaultLibraryConfig()
	libCfg.Objects, libCfg.MinBlocks, libCfg.MaxBlocks = *objects, *blocks, *blocks
	libCfg.BlockBytes = cfg.BlockBytes
	lib, err := scaddar.Library(libCfg)
	if err != nil {
		log.Fatal(err)
	}
	for _, obj := range lib {
		if err := srv.AddObject(obj); err != nil {
			log.Fatal(err)
		}
	}
	gw, err := scaddar.NewGateway(srv, scaddar.GatewayConfig{
		Factory:          factory,
		Round:            *roundD,
		StreamBuffer:     *buffer,
		StreamEvictAfter: *evictAfter,
		MailboxDepth:     *mailbox,
	})
	if err != nil {
		log.Fatal(err)
	}
	hc := &http.Client{Transport: handlerTransport{h: gw.Handler()}}
	base := "http://gateway.local"
	fmt.Printf("streaming: %d disks, %d objects x %d blocks x %dB, %d sessions, round %s (%.1f MB/round at full rate)\n",
		*nDisks, *objects, *blocks, *blockBytes, *sessions, *roundD,
		float64(*sessions)*float64(*blockBytes)/1e6)

	// One shared locator for every session: snapshot once, then deltas.
	loc := scaddar.NewStreamClientLocator(factory)
	followCtx, stopFollow := context.WithCancel(context.Background())
	defer stopFollow()
	followed, err := loc.FollowHTTP(followCtx, hc, base)
	if err != nil {
		log.Fatal(err)
	}

	// Gap histograms per phase, in seconds. Buckets fine enough to resolve
	// fractions of a round around the configured pace.
	reg := scaddar.NewMetricsRegistry()
	gapBuckets := scaddar.ExpBuckets(float64(*roundD)/float64(time.Second)/8, 1.3, 40)
	gapH := [3]*scaddar.Histogram{
		reg.NewHistogram("gap_before_seconds", "inter-chunk gaps before maintenance", gapBuckets),
		reg.NewHistogram("gap_during_seconds", "inter-chunk gaps during maintenance", gapBuckets),
		reg.NewHistogram("gap_after_seconds", "inter-chunk gaps after maintenance", gapBuckets),
	}
	var phase atomic.Int32

	// The session fleet: each goroutine opens one session and drains its
	// stream to the end frame, verifying every chunk against the oracle and
	// the shared locator. Admission and attach are two requests, so the
	// pacer may play a stream's first round(s) unattended before the GET
	// lands — those head chunks are dropped by design and tracked as late
	// joins; everything after the first received frame is zero-tolerance:
	// a mid-stream index gap must match a server-counted miss, and any
	// content mismatch, frame error, or non-"done" ending is a failure.
	var (
		wg         sync.WaitGroup
		opened     atomic.Int64
		done       atomic.Int64
		chunks     atomic.Int64
		badEnd     atomic.Int64
		mismatch   atomic.Int64
		locErrs    atomic.Int64
		frameErrs  atomic.Int64
		headMissed atomic.Int64    // chunks paced out before the consumer attached
		lateJoins  atomic.Int64    // sessions whose first received frame was not chunk 0
		midGaps    atomic.Int64    // chunks skipped after the first received frame
		hiccups    [3]atomic.Int64 // gaps > 2 rounds, per phase
	)
	deadline := 2 * *roundD
	for i := 0; i < *sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			object := i % *objects
			sid, err := openSession(hc, base, object, i)
			if err != nil {
				badEnd.Add(1)
				log.Printf("session open (object %d): %v", object, err)
				return
			}
			opened.Add(1)
			resp, err := attachStream(hc, base, sid, i)
			if err != nil {
				badEnd.Add(1)
				log.Printf("session %d: %v", sid, err)
				return
			}
			defer resp.Body.Close()
			obj, _ := loc.Object(object)
			br := bufio.NewReader(resp.Body)
			last := time.Time{}
			next, first := 0, true
			for {
				f, err := scaddar.ReadStreamFrame(br)
				if err != nil {
					frameErrs.Add(1)
					badEnd.Add(1)
					return
				}
				if f.End {
					if f.Reason == scaddar.StreamCloseDone && next == *blocks {
						done.Add(1)
					} else {
						badEnd.Add(1)
					}
					return
				}
				switch {
				case first:
					// A late join: rounds paced out before we attached.
					if f.Index > 0 {
						lateJoins.Add(1)
						headMissed.Add(int64(f.Index))
					}
					first = false
				case f.Index > next:
					midGaps.Add(int64(f.Index - next))
				case f.Index < next:
					mismatch.Add(1) // replay/reorder: never legal
				}
				next = f.Index + 1
				if !scaddar.VerifySeededContent(f.Data, obj.Seed, uint64(f.Index)) {
					mismatch.Add(1)
				}
				if _, err := loc.Locate(object, f.Index); err != nil {
					locErrs.Add(1)
				}
				now := time.Now()
				if !last.IsZero() {
					p := phase.Load()
					gapH[p].ObserveDuration(now.Sub(last))
					if now.Sub(last) > deadline {
						hiccups[p].Add(1)
					}
				}
				last = now
				chunks.Add(1)
			}
		}(i)
	}

	// Maintenance under full streaming load: let pacing establish, then run
	// one scale-up and one fail/rebuild cycle back to back — the "during"
	// phase for gap attribution.
	waitRounds(gw, 4)
	phase.Store(phaseDuring)
	fmt.Printf("scale:   +%d disks while %d sessions stream...\n", *addDisks, opened.Load())
	post(hc, base, "/v1/scale", fmt.Sprintf(`{"add": %d}`, *addDisks), func() bool {
		st := gw.Status()
		return st.Reorganizing || st.Disks == *nDisks+*addDisks
	})
	waitFor("scale-up", gw, func(st scaddar.GatewayStatus) bool {
		return !st.Reorganizing && st.Disks == *nDisks+*addDisks
	})
	fmt.Printf("drill:   failing disk 2, then repairing it...\n")
	post(hc, base, "/v1/disks/2/fail", "", func() bool { return gw.Status().Degraded })
	waitRounds(gw, 2)
	rebuiltBefore := gw.Status().Server.BlocksRebuilt
	post(hc, base, "/v1/disks/2/repair", "", func() bool {
		st := gw.Status()
		return !st.Degraded || st.Server.BlocksRebuilt > rebuiltBefore
	})
	waitFor("rebuild", gw, func(st scaddar.GatewayStatus) bool { return !st.Degraded })
	phase.Store(phaseAfter)
	st := gw.Status()
	fmt.Printf("drill:   healthy again; %d blocks migrated, %d rebuilt\n",
		st.Server.BlocksMigrated, st.Server.BlocksRebuilt)

	wg.Wait()
	stopFollow()
	resyncs := followed()

	// Report: pacing percentiles per phase, then the verdicts.
	fmt.Printf("deltas:  locator feed published %d deltas, %d client resyncs\n",
		gw.Status().Gateway.DeltasPublished, resyncs)
	for p, name := range []string{"before", "during", "after "} {
		s := gapH[p].Snapshot()
		if s.Count == 0 {
			continue
		}
		fmt.Printf("gaps %s: n=%-8d p50 %6.1fms  p90 %6.1fms  p99 %6.1fms  p99.9 %6.1fms  hiccups(>2 rounds) %d\n",
			name, s.Count, s.Quantile(0.50)*1e3, s.Quantile(0.90)*1e3,
			s.Quantile(0.99)*1e3, s.Quantile(0.999)*1e3, hiccups[p].Load())
	}
	g := gw.Status()
	fmt.Printf("server:  %d chunks delivered, %d round misses, %d evictions, %d degraded reads, %d unrecoverable\n",
		g.Gateway.StreamChunks, g.Gateway.StreamMisses, g.Gateway.StreamEvictions,
		g.Server.DegradedReads, g.Server.UnrecoverableReads)

	if err := shutdown(gw); err != nil {
		log.Fatalf("drain: %v", err)
	}
	want := int64(*sessions)
	total := int64(*sessions) * int64(*blocks)
	fmt.Printf("load:    %d/%d sessions played to completion, %d/%d chunks verified (%d head chunks on %d late joins)\n",
		done.Load(), want, chunks.Load(), total, headMissed.Load(), lateJoins.Load())
	// Conservation: every block the server served was either received and
	// verified by a client, paced out before that client attached (late
	// join), or dropped as a server-counted round miss. Nothing vanishes
	// silently.
	switch {
	case done.Load() != want || badEnd.Load() != 0:
		log.Fatalf("FAIL: lost sessions: %d done, %d failed (want %d done, 0 failed)",
			done.Load(), badEnd.Load(), want)
	case mismatch.Load() != 0 || frameErrs.Load() != 0:
		log.Fatalf("FAIL: %d chunk mismatches, %d frame errors — delivered bytes differ from ingest",
			mismatch.Load(), frameErrs.Load())
	case locErrs.Load() != 0:
		log.Fatalf("FAIL: %d client-locator lookup failures", locErrs.Load())
	case g.Server.UnrecoverableReads != 0:
		log.Fatalf("FAIL: %d unrecoverable reads — redundancy lost blocks", g.Server.UnrecoverableReads)
	case chunks.Load() != g.Gateway.StreamChunks:
		log.Fatalf("FAIL: clients received %d chunks, server buffered %d — chunks lost in flight",
			chunks.Load(), g.Gateway.StreamChunks)
	case chunks.Load()+headMissed.Load()+midGaps.Load() != total:
		log.Fatalf("FAIL: %d received + %d late-join head + %d mid-stream gaps != %d served",
			chunks.Load(), headMissed.Load(), midGaps.Load(), total)
	case midGaps.Load() != g.Gateway.StreamMisses:
		log.Fatalf("FAIL: clients saw %d mid-stream gaps, server counted %d round misses",
			midGaps.Load(), g.Gateway.StreamMisses)
	case g.Gateway.StreamEvictions != 0:
		log.Fatalf("FAIL: %d sessions evicted", g.Gateway.StreamEvictions)
	}
	fmt.Println("OK: every session played to the end through a scale-up and a rebuild — every chunk byte-identical to ingest")
}

// openSession opens one playback session (paused, so the pacer delivers
// nothing until the stream attach lands and resumes it — under an open
// stampede the attach can trail the open by many rounds) and returns its
// ID. 503 is backpressure (a full mailbox during the open stampede, or
// admission control), so it retries with jitter until the deadline.
func openSession(hc *http.Client, base string, object, jitterSeed int) (int, error) {
	body := fmt.Sprintf(`{"object": %d, "paused": true}`, object)
	deadline := time.Now().Add(2 * time.Minute)
	for attempt := 0; ; attempt++ {
		resp, err := hc.Post(base+"/v1/sessions", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			return 0, err
		}
		var out struct {
			Session int `json:"session"`
		}
		ok := resp.StatusCode == http.StatusCreated
		if ok {
			err = json.NewDecoder(resp.Body).Decode(&out)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if ok && err == nil {
			return out.Session, nil
		}
		retryable := resp.StatusCode == http.StatusServiceUnavailable ||
			resp.StatusCode == http.StatusGatewayTimeout
		if retryable && time.Now().Before(deadline) {
			// Spread the retries so ten thousand rejected openers do not
			// stampede the mailbox again in lockstep.
			time.Sleep(time.Duration(2+(jitterSeed+attempt*7)%23) * time.Millisecond)
			continue
		}
		return 0, fmt.Errorf("open session: status %d (attempt %d)", resp.StatusCode, attempt)
	}
}

// attachStream opens the session's chunk stream, retrying backpressure
// rejections (503) and mailbox-queue timeouts (504) the same way openSession
// does; the stream plays unattended until the attach lands, which the
// late-join accounting absorbs.
func attachStream(hc *http.Client, base string, sid, jitterSeed int) (*http.Response, error) {
	deadline := time.Now().Add(2 * time.Minute)
	for attempt := 0; ; attempt++ {
		resp, err := hc.Get(fmt.Sprintf("%s/v1/sessions/%d/stream", base, sid))
		if err != nil {
			return nil, err
		}
		if resp.StatusCode == http.StatusOK {
			return resp, nil
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		retryable := resp.StatusCode == http.StatusServiceUnavailable ||
			resp.StatusCode == http.StatusGatewayTimeout
		if retryable && time.Now().Before(deadline) {
			time.Sleep(time.Duration(2+(jitterSeed+attempt*7)%23) * time.Millisecond)
			continue
		}
		return nil, fmt.Errorf("attach stream %d: status %d (attempt %d)", sid, resp.StatusCode, attempt)
	}
}

// post issues a control request and requires 202, retrying 503 (the control
// plane shares the mailbox with session traffic) until a deadline. A 504 is
// ambiguous — the command may still land after the gateway's exec deadline,
// or be skipped as expired at the mailbox head — so took, an observable
// effect predicate, arbitrates: post watches for the effect for a while and
// re-POSTs only if it never appears. Blind retry would double-apply (two
// scale-ups instead of one).
func post(hc *http.Client, base, path, body string, took func() bool) {
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := hc.Post(base+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			log.Fatal(err)
		}
		code := resp.StatusCode
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch {
		case code == http.StatusAccepted:
			return
		case time.Now().After(deadline):
			log.Fatalf("POST %s -> %d", path, code)
		case code == http.StatusServiceUnavailable:
			time.Sleep(20 * time.Millisecond)
		case code == http.StatusGatewayTimeout:
			for i := 0; i < 40 && !took(); i++ {
				time.Sleep(50 * time.Millisecond)
			}
			if took() {
				return
			}
		default:
			log.Fatalf("POST %s -> %d", path, code)
		}
	}
}

// waitFor polls gateway status until done reports true.
func waitFor(what string, gw *scaddar.Gateway, pred func(scaddar.GatewayStatus) bool) {
	deadline := time.Now().Add(10 * time.Minute)
	for !pred(gw.Status()) {
		if time.Now().After(deadline) {
			log.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitRounds sleeps for n wall-clock rounds.
func waitRounds(gw *scaddar.Gateway, n int) {
	start := gw.Status().Rounds
	waitFor("rounds", gw, func(st scaddar.GatewayStatus) bool { return st.Rounds >= start+n })
}

// shutdown drains the gateway.
func shutdown(gw *scaddar.Gateway) error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	return gw.Shutdown(ctx)
}

// handlerTransport serves requests straight through an http.Handler with a
// piped streaming body — the full handler stack without TCP sockets, so a
// 10k-session fleet costs goroutines, not file descriptors.
type handlerTransport struct{ h http.Handler }

// RoundTrip implements http.RoundTripper.
func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	pr, pw := io.Pipe()
	rw := &pipeResponse{pw: pw, header: make(http.Header), ready: make(chan struct{})}
	go func() {
		t.h.ServeHTTP(rw, req)
		rw.finish()
	}()
	<-rw.ready
	return &http.Response{
		Status:     http.StatusText(rw.status),
		StatusCode: rw.status,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     rw.header,
		Body:       pr,
		Request:    req,
	}, nil
}

// pipeResponse adapts an io.Pipe into the http.ResponseWriter + Flusher the
// streaming handler needs. The response becomes visible to the client at
// the first WriteHeader/Write (like a real server); closing the pipe ends
// the body.
type pipeResponse struct {
	pw     *io.PipeWriter
	header http.Header
	status int
	once   sync.Once
	ready  chan struct{}
}

// Header implements http.ResponseWriter.
func (w *pipeResponse) Header() http.Header { return w.header }

// WriteHeader implements http.ResponseWriter; the first call releases the
// buffered *http.Response to the client.
func (w *pipeResponse) WriteHeader(code int) {
	w.once.Do(func() {
		w.status = code
		close(w.ready)
	})
}

// Write implements http.ResponseWriter, streaming into the pipe.
func (w *pipeResponse) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.pw.Write(p)
}

// Flush implements http.Flusher; the pipe has no buffering to flush.
func (w *pipeResponse) Flush() {}

// finish releases a response that never wrote anything and ends the body.
func (w *pipeResponse) finish() {
	w.WriteHeader(http.StatusOK)
	w.pw.Close()
}
