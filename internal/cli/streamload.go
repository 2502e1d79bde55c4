package cli

// loadgen -stream: the streaming mode of the load engine. Instead of timed
// block lookups its operation opens a real playback session and drains the
// chunked stream, exactly the way a population of viewers would:
//
//   - every client shares ONE dataplane.ClientLocator kept current by a
//     single feed subscription (ClientLocator.FollowHTTP: the full snapshot once,
//     then long-polled deltas) — ten thousand sessions tracking a live
//     reorganization cost the server one feed, not 10k lookups/round;
//   - every received chunk is CRC-checked by the wire framing and verified
//     byte-for-byte against the seeded content oracle at its block index, so
//     a migration or rebuild that served the wrong bytes is caught here;
//   - chunk inter-arrival gaps are sampled and reported as percentiles,
//     split by the reorganization window when -scale-at fires mid-run — the
//     client-side view of hiccups that ROADMAP experiment E19 records.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"scaddar/internal/dataplane"
	"scaddar/internal/prng"
)

// streamLoad drives concurrent streaming sessions against a gateway and
// reports chunk integrity plus pacing percentiles.
func (l *load) streamLoad() error {
	opts := l.opts
	streams := &http.Client{} // no global timeout: streams legitimately outlive any fixed budget
	loc := dataplane.NewClientLocator(func(seed uint64) prng.Source { return prng.NewSplitMix64(seed) })

	// One feed subscription keeps the shared locator current for everyone.
	followCtx, stopFollow := context.WithCancel(context.Background())
	defer stopFollow()
	followed, err := loc.FollowHTTP(followCtx, streams, opts.addr)
	if err != nil {
		return err
	}
	l.printf("loadgen: %d streaming clients against %s for %s (%d objects, Zipf θ=%g, one shared locator)\n",
		opts.clients, opts.addr, opts.duration, len(l.objects), opts.zipf)

	// Read the server's counters before the run so the final report can
	// attribute flushes and rounds to this run alone.
	before, beforeErr := fetchStatus(l.hc, opts.addr)

	res, err := l.run(func(wk *loadWorker) func() error {
		return func() error { wk.playSession(streams, loc); return nil }
	})
	stopFollow()
	resyncs := followed()
	if err != nil {
		return err
	}

	n := res.n
	l.printf("sessions opened %d (rejected %d): %d done, %d evicted, %d stopped\n",
		n[nOpened], n[nRejected], n[nDone], n[nEvicted], n[nStopped])
	l.printf("chunks %d (%.1f MiB, %.1f chunks/s)  frame errors %d  oracle mismatches %d  locate errors %d  feed resyncs %d\n",
		n[nChunks], float64(n[nBytes])/(1<<20), res.rate(nChunks),
		n[nFrameErrs], n[nOracleErrs], n[nLocateErrs], resyncs)
	mibs := res.rate(nBytes) / (1 << 20)
	l.printf("throughput %.1f MiB/s aggregate, %.2f MiB/s per client (%d clients)\n",
		mibs, mibs/float64(opts.clients), opts.clients)
	if n[nFrameErrs] > 0 || n[nOracleErrs] > 0 {
		l.printf("loadgen: INTEGRITY FAILURES DETECTED\n")
	}
	if opts.deadline > 0 {
		l.printf("client deadline %s: %d chunk gaps missed it\n", opts.deadline, n[nMisses])
	}
	l.reportWindows(res, "chunk gap overall:", nil)

	// The server's own data-plane counters close the loop: its deadline
	// misses (hiccups) and evictions should explain any client-side gaps,
	// and the flush count shows how hard the coalesced drain worked — an
	// awake session pays one flush per round regardless of how many
	// chunks it gathered, so flushes/round ≈ concurrently-drained sessions.
	if st, err := fetchStatus(l.hc, opts.addr); err == nil {
		g := st.Gateway
		l.printf("server: %d chunks buffered, %d deadline misses, %d evictions, %d locator deltas\n",
			g.StreamChunks, g.StreamMisses, g.StreamEvictions, g.DeltasPublished)
		if beforeErr == nil {
			rounds := st.Rounds - before.Rounds
			flushes := g.StreamFlushes - before.Gateway.StreamFlushes
			chunks := g.StreamChunks - before.Gateway.StreamChunks
			if rounds > 0 && flushes > 0 {
				l.printf("server: %d flushes over %d rounds (%.2f flushes/round, %.2f chunks/flush)\n",
					flushes, rounds, float64(flushes)/float64(rounds), float64(chunks)/float64(flushes))
			}
		}
	}
	return nil
}

// playSession is the streaming operation: open a session on a Zipf-popular
// object and read its chunk stream to the end frame (or the run deadline),
// verifying framing, oracle bytes, and the shared locator.
func (wk *loadWorker) playSession(streams *http.Client, loc *dataplane.ClientLocator) {
	obj := wk.objects[wk.zipf.Draw()]
	sess, ok := wk.openSession(obj.ID)
	if !ok {
		return
	}
	req, err := http.NewRequestWithContext(wk.ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/sessions/%d/stream", wk.opts.addr, sess), nil)
	if err != nil {
		return
	}
	resp, err := streams.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return
	}
	info, haveInfo := loc.Object(obj.ID)
	br := bufio.NewReader(resp.Body)
	var prev time.Time
	for {
		f, err := dataplane.ReadFrame(br)
		if err != nil {
			// A deadline cancellation mid-frame is the run ending, not a
			// protocol failure.
			if wk.ctx.Err() == nil && err != io.EOF {
				wk.n[nFrameErrs]++
			}
			return
		}
		now := time.Now()
		if f.End {
			switch f.Reason {
			case dataplane.CloseDone:
				wk.n[nDone]++
			case dataplane.CloseEvicted:
				wk.n[nEvicted]++
			default:
				wk.n[nStopped]++
			}
			return
		}
		wk.n[nChunks]++
		wk.n[nBytes] += int64(len(f.Data))
		if haveInfo && !dataplane.VerifySeededContent(f.Data, info.Seed, uint64(f.Index)) {
			wk.n[nOracleErrs]++
		}
		// Exercise the shared locator exactly as a smart client would: the
		// block that just arrived must be locatable without asking the
		// server.
		if _, err := loc.Locate(obj.ID, f.Index); err != nil {
			wk.n[nLocateErrs]++
		}
		if !prev.IsZero() {
			gap := now.Sub(prev)
			wk.samples = append(wk.samples, sample{at: prev.Sub(wk.start), lat: gap})
			if wk.opts.deadline > 0 && gap > wk.opts.deadline {
				wk.n[nMisses]++
			}
		}
		prev = now
	}
}
