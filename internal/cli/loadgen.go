package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"scaddar/internal/binproto"
	"scaddar/internal/cluster"
	"scaddar/internal/obs"
	"scaddar/internal/prng"
	"scaddar/internal/workload"
)

// This file is the load engine every loadgen mode runs on. The engine owns
// what the modes do identically — option validation, catalog discovery, the
// seeded worker fan-out, the run deadline, the -scale-at driver and its
// drain poll, session open with Retry-After backoff, the tally merge, the
// percentile reporter and the output writer. A mode (lookupload.go,
// streamload.go, binload.go) supplies one per-worker operation, the
// counters it bumps and its summary lines.

// loadgenOptions configures the load generator; a plain struct so tests can
// call runLoadgen directly.
type loadgenOptions struct {
	addr     string
	follower string
	cluster  bool
	clients  int
	duration time.Duration
	zipf     float64
	seed     uint64
	scaleAt  time.Duration
	add      int
	shard    int
	perSess  int
	dash     time.Duration
	stream   bool
	deadline time.Duration
	bin      bool
	batch    int
}

// mode names the operation the options select, as the user would type it.
func (o loadgenOptions) mode() string {
	switch {
	case o.bin:
		return "-bin"
	case o.stream:
		return "-stream"
	}
	return "lookup"
}

// loadgenFlagModes lists, for every flag that only some modes read, the
// modes that read it. A flag set for a mode outside its list is refused
// rather than silently ignored; flags absent here apply to every mode.
var loadgenFlagModes = map[string][]string{
	"add":         {"lookup", "-stream"},
	"batch":       {"-bin"},
	"cluster":     {"lookup", "-bin"},
	"dash":        {"lookup"},
	"deadline":    {"-stream"},
	"follower":    {"lookup"},
	"per-session": {"lookup"},
	"scale-at":    {"lookup", "-stream"},
	"shard":       {"lookup"},
}

func cmdLoadgen(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(w)
	var opts loadgenOptions
	fs.StringVar(&opts.addr, "addr", "http://127.0.0.1:8080", "gateway base URL")
	fs.StringVar(&opts.follower, "follower", "", "replica base URL (scaddar follow) to spread reads onto and report replication lag percentiles (empty = leader only)")
	fs.BoolVar(&opts.cluster, "cluster", false, "target is a cluster router: attribute requests to shards via the X-Scaddar-Shard header and report per-shard skew")
	fs.IntVar(&opts.clients, "clients", 8, "concurrent client goroutines")
	fs.DurationVar(&opts.duration, "duration", 10*time.Second, "how long to generate load")
	fs.Float64Var(&opts.zipf, "zipf", 0.729, "Zipf skew θ for object popularity")
	fs.Uint64Var(&opts.seed, "seed", 1, "client PRNG seed base")
	fs.DurationVar(&opts.scaleAt, "scale-at", 0, "when to request a scale-up over HTTP (0 = never)")
	fs.IntVar(&opts.add, "add", 2, "disks to add at -scale-at")
	fs.IntVar(&opts.shard, "shard", 0, "shard ID the -scale-at request targets in -cluster mode (the router scales one shard at a time)")
	fs.IntVar(&opts.perSess, "per-session", 32, "block lookups per session before closing it")
	fs.DurationVar(&opts.dash, "dash", 0, "scrape /v1/metrics and print a live dashboard line at this interval (0 = off)")
	fs.BoolVar(&opts.stream, "stream", false, "drive chunked streaming sessions (GET /v1/sessions/{id}/stream) instead of block lookups, tracking placement via the snapshot+delta locator feed and verifying every chunk against the content oracle")
	fs.DurationVar(&opts.deadline, "deadline", 0, "client-side chunk deadline for the -stream hiccup count (0 = server round pacing only)")
	fs.BoolVar(&opts.bin, "bin", false, "compare the HTTP read path against the binary lookup protocol (docs/PROTOCOL.md): one HTTP phase, one binary single-lookup phase, and one binary batched phase, reported side by side")
	fs.IntVar(&opts.batch, "batch", 64, "lookups per frame in the -bin batched phase")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if opts.bin && opts.stream {
		return fmt.Errorf("-bin and -stream are mutually exclusive")
	}
	// Visit sees only the flags actually set (several have non-zero
	// defaults), in name order, so the first refusal is deterministic.
	var unused error
	fs.Visit(func(f *flag.Flag) {
		if modes, ok := loadgenFlagModes[f.Name]; ok && unused == nil && !slices.Contains(modes, opts.mode()) {
			unused = fmt.Errorf("-%s is not used in %s mode (it applies to: %s)",
				f.Name, opts.mode(), strings.Join(modes, ", "))
		}
	})
	if unused != nil {
		return unused
	}
	return runLoadgen(opts, w)
}

// runLoadgen validates the options, discovers the catalog and hands the run
// to the selected mode.
func runLoadgen(opts loadgenOptions, w io.Writer) error {
	if opts.clients < 1 {
		return fmt.Errorf("clients %d", opts.clients)
	}
	if opts.duration <= 0 {
		return fmt.Errorf("duration %s", opts.duration)
	}
	if opts.bin && (opts.batch < 1 || opts.batch > binproto.MaxBatch) {
		return fmt.Errorf("batch %d outside [1,%d]", opts.batch, binproto.MaxBatch)
	}
	if opts.perSess < 1 {
		opts.perSess = 32
	}
	l := &load{opts: opts, w: w, hc: &http.Client{Timeout: 30 * time.Second}}

	// Discover the library from the gateway itself.
	resp, err := l.hc.Get(opts.addr + "/v1/objects")
	if err != nil {
		return fmt.Errorf("objects: %w", err)
	}
	err = json.NewDecoder(resp.Body).Decode(&l.objects)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("objects: %w", err)
	}
	if len(l.objects) == 0 {
		return fmt.Errorf("gateway has no objects loaded")
	}
	switch {
	case opts.bin:
		return l.binLoad()
	case opts.stream:
		return l.streamLoad()
	}
	return l.lookupLoad()
}

type lgObject struct {
	ID     int `json:"id"`
	Blocks int `json:"blocks"`
}

// load is one loadgen invocation: the validated options, the catalog and
// the output writer, which only printf touches — side tasks and the scale
// driver report while workers run, so every line goes through one lock.
type load struct {
	opts    loadgenOptions
	hc      *http.Client // control requests and lookups
	objects []lgObject

	mu sync.Mutex
	w  io.Writer
}

func (l *load) printf(format string, a ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(l.w, format, a...)
}

// The counters a mode's operation may bump on its worker; the engine sums
// each across workers.
const (
	nOpened     = iota // sessions admitted
	nRejected          // session opens refused
	nRetries           // back-offs after a 503 (lookup)
	nDone              // streams played to their end frame
	nEvicted           // streams the server evicted
	nStopped           // streams ended any other way
	nChunks            // stream chunks received
	nBytes             // stream payload bytes received
	nFrameErrs         // stream framing/CRC failures
	nOracleErrs        // chunks differing from the content oracle
	nLocateErrs        // chunks the shared locator could not place
	nMisses            // chunk gaps above -deadline
	nLookups           // successful lookups (-bin)
	nErrs              // failed lookups (-bin)
	numCounters
)

// sample is one timed outcome: a request (lookup, -bin) or the gap between
// two chunks (-stream).
type sample struct {
	at    time.Duration // offset from run start
	lat   time.Duration
	code  int    // HTTP status (lookup mode; 0 otherwise)
	shard string // answering shard (cluster lookups; empty otherwise)
}

// loadWorker is one client goroutine's state: its two seeded streams, its
// tally, and the run it belongs to.
type loadWorker struct {
	*load
	ctx     context.Context // ends at the run deadline, or earlier if the run is abandoned
	start   time.Time
	zipf    *workload.Zipf
	rng     prng.Source
	n       [numCounters]int64
	samples []sample
	err     error
}

// sideTask runs beside the workers: tick is called at the given interval,
// with the time since run start, until the run ends.
type sideTask struct {
	every time.Duration
	tick  func(elapsed time.Duration)
}

// reorgWindow is the reorganization a -scale-at request started, as offsets
// from run start; end stays undrained when the drain was never observed.
type reorgWindow struct{ start, end time.Duration }

const undrained = time.Duration(math.MaxInt64)

// scaleDrainGrace is how long past the run's end the scale driver keeps
// polling for the reorganization to drain.
const scaleDrainGrace = 30 * time.Second

// loadResult is one run's merged outcome.
type loadResult struct {
	elapsed time.Duration
	n       [numCounters]int64
	samples []sample
	window  *reorgWindow // nil when no scale-up was accepted
}

// rate is a counter per second of run time.
func (r *loadResult) rate(counter int) float64 {
	return float64(r.n[counter]) / r.elapsed.Seconds()
}

// run is the engine: it fans newOp out over opts.clients deterministically
// seeded workers, each repeating its operation until the run deadline,
// drives the side tasks and the -scale-at request beside them, and merges
// the tallies once everything it started has stopped. An operation's error
// or a failed scale request abandons the run: the context is cancelled and
// the error comes back once every goroutine has been joined.
func (l *load) run(newOp func(*loadWorker) func() error, side ...sideTask) (*loadResult, error) {
	opts := l.opts
	start := time.Now()
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(opts.duration))
	defer cancel()
	workers := make([]*loadWorker, opts.clients)
	for i := range workers {
		z, err := workload.NewZipf(prng.NewSplitMix64(opts.seed+uint64(i)*2654435761), len(l.objects), opts.zipf)
		if err != nil {
			return nil, err
		}
		workers[i] = &loadWorker{load: l, ctx: ctx, start: start, zipf: z,
			rng: prng.NewSplitMix64(opts.seed*31 + uint64(i))}
	}
	var wg sync.WaitGroup
	for _, wk := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			op := newOp(wk)
			for wk.err == nil && ctx.Err() == nil {
				// A request cut off by the run's end is not a failure; any
				// other error leaves nothing worth measuring.
				if err := op(); err != nil && ctx.Err() == nil {
					wk.err = err
					cancel()
				}
			}
		}()
	}
	for _, t := range side {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(t.every)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					t.tick(time.Since(start))
				}
			}
		}()
	}
	window, err := l.driveScale(ctx, start, scaleDrainGrace)
	if err != nil {
		cancel()
	}
	wg.Wait()
	res := &loadResult{elapsed: time.Since(start), window: window}
	for _, wk := range workers {
		if err == nil {
			err = wk.err
		}
		for c, v := range wk.n {
			res.n[c] += v
		}
		res.samples = append(res.samples, wk.samples...)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// driveScale requests the mid-run scale-up over HTTP and measures the
// reorganization window by polling /v1/status until the migration drains
// or grace has passed beyond the run's end.
func (l *load) driveScale(ctx context.Context, start time.Time, grace time.Duration) (*reorgWindow, error) {
	opts := l.opts
	if opts.scaleAt <= 0 || opts.scaleAt >= opts.duration {
		return nil, nil
	}
	select {
	case <-ctx.Done():
		return nil, nil
	case <-time.After(opts.scaleAt):
	}
	scaleReq := map[string]int{"add": opts.add}
	if opts.cluster {
		// The router scales one shard's array at a time.
		scaleReq["shard"] = opts.shard
	}
	body, _ := json.Marshal(scaleReq)
	win := &reorgWindow{start: time.Since(start), end: undrained}
	resp, err := l.hc.Post(opts.addr+"/v1/scale", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("scale: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		l.printf("loadgen: scale-up rejected with status %d\n", resp.StatusCode)
		return nil, nil
	}
	l.printf("loadgen: scale-up +%d accepted at t=%s\n", opts.add, win.start.Round(time.Millisecond))
	for giveUp := start.Add(opts.duration + grace); time.Now().Before(giveUp); time.Sleep(20 * time.Millisecond) {
		st, err := fetchStatus(l.hc, opts.addr)
		if err == nil && opts.cluster {
			// The router's page has no reorganizing flag of its own: read
			// the scaled shard's embedded status document.
			st, err = st.shard(opts.shard)
		}
		if err == nil && !st.Reorganizing {
			win.end = time.Since(start)
			l.printf("loadgen: reorganization drained in %s\n", (win.end - win.start).Round(time.Millisecond))
			return win, nil
		}
	}
	l.printf("loadgen: reorganization not seen to drain within %s of the run's end; reporting the reorg window as open-ended\n", grace)
	return win, nil
}

// openSession opens one session on object. A refusal is counted, and the
// worker backs off by the server's Retry-After hint before ok=false comes
// back, so the caller just moves on to its next operation.
func (wk *loadWorker) openSession(object int) (id int, ok bool) {
	retryAfter := time.Second
	body, _ := json.Marshal(map[string]int{"object": object})
	resp, err := wk.hc.Post(wk.opts.addr+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err == nil {
		defer resp.Body.Close()
		var out struct {
			Session int `json:"session"`
		}
		if resp.StatusCode != http.StatusCreated {
			io.Copy(io.Discard, resp.Body)
			retryAfter = retryAfterHint(resp.Header)
		} else if json.NewDecoder(resp.Body).Decode(&out) == nil {
			wk.n[nOpened]++
			return out.Session, true
		}
	}
	wk.n[nRejected]++
	wk.backoff(retryAfter)
	return 0, false
}

// retryAfterHint reads the server's Retry-After header; absent or
// malformed, back off one second.
func retryAfterHint(h http.Header) time.Duration {
	if s := h.Get("Retry-After"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return time.Duration(n) * time.Second
		}
	}
	return time.Second
}

// backoff sleeps (or until the run ends) for the hint spread over [d/2, d],
// so clients pushed back at the same instant don't return in lockstep and
// re-create the overload.
func (wk *loadWorker) backoff(d time.Duration) {
	if d <= 0 {
		d = time.Second
	}
	half := d / 2
	select {
	case <-wk.ctx.Done():
	case <-time.After(half + time.Duration(wk.rng.Next()%uint64(half+1))):
	}
}

// drawBlock picks a Zipf-popular object and a uniform block within it.
func (wk *loadWorker) drawBlock() (lgObject, int) {
	obj := wk.objects[wk.zipf.Draw()]
	return obj, int(wk.rng.Next() % uint64(obj.Blocks))
}

// latencyLine renders the percentiles of the kept samples (nil keeps all).
// They come from the same fixed-bucket histogram the server exposes, so
// client-side and scraped figures are directly comparable.
func latencyLine(samples []sample, keep func(sample) bool) (n uint64, line string) {
	h := obs.MustNewHistogram(obs.LatencyBuckets())
	for _, s := range samples {
		if keep == nil || keep(s) {
			h.ObserveDuration(s.lat)
		}
	}
	sn := h.Snapshot()
	return sn.Count, fmt.Sprintf("p50 %-9s p95 %-9s p99 %s",
		secondsDuration(sn.Quantile(0.50)), secondsDuration(sn.Quantile(0.95)), secondsDuration(sn.Quantile(0.99)))
}

// report prints one labelled percentile line for the kept samples, or
// nothing when none are kept.
func (l *load) report(res *loadResult, label string, keep func(sample) bool) {
	if n, line := latencyLine(res.samples, keep); n > 0 {
		l.printf("%-22s n=%-7d %s\n", label, n, line)
	}
}

// reportWindows prints the overall percentile line and, when a scale-up was
// driven, its before/during/after split. An undrained window has no after.
func (l *load) reportWindows(res *loadResult, label string, keep func(sample) bool) {
	if keep == nil {
		keep = func(sample) bool { return true }
	}
	l.report(res, label, keep)
	if win := res.window; win != nil {
		l.report(res, "  before reorg:", func(s sample) bool { return keep(s) && s.at < win.start })
		l.report(res, "  during reorg:", func(s sample) bool { return keep(s) && s.at >= win.start && s.at < win.end })
		l.report(res, "  after reorg:", func(s sample) bool { return keep(s) && s.at >= win.end })
	}
}

// lgStatus is the slice of the /v1/status JSON the load generator cares
// about: a gateway's own fields, or — on a cluster router's aggregated
// page — the routing table and every shard's embedded status document.
type lgStatus struct {
	Reorganizing bool   `json:"reorganizing"`
	BinAddr      string `json:"binAddr"`
	Rounds       int    `json:"rounds"`
	Gateway      struct {
		StreamChunks    int64 `json:"streamChunks"`
		StreamFlushes   int64 `json:"streamFlushes"`
		StreamMisses    int64 `json:"streamMisses"`
		StreamEvictions int64 `json:"streamEvictions"`
		DeltasPublished int64 `json:"deltasPublished"`
	} `json:"gateway"`
	Cluster cluster.TopologyView `json:"cluster"`
	Shards  []struct {
		ID     int      `json:"id"`
		Status lgStatus `json:"status"`
		Error  string   `json:"error"`
	} `json:"shards"`
}

func fetchStatus(hc *http.Client, base string) (lgStatus, error) {
	var m lgStatus
	resp, err := hc.Get(base + "/v1/status")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// shard picks one shard's status document out of a router's page.
func (st lgStatus) shard(id int) (lgStatus, error) {
	for _, sh := range st.Shards {
		if sh.ID == id {
			if sh.Error != "" {
				return lgStatus{}, fmt.Errorf("shard %d: %s", id, sh.Error)
			}
			return sh.Status, nil
		}
	}
	return lgStatus{}, fmt.Errorf("shard %d not in cluster status", id)
}

// secondsDuration renders a float64 seconds value (the unit obs histograms
// record latency in) as a rounded time.Duration.
func secondsDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second)).Round(10 * time.Microsecond)
}
