package main

import (
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// spec says what one child process runs.
type spec struct {
	Workload string
	Seed     uint64
	// Warmup is the warmup constant in every child; tests shorten it.
	Warmup time.Duration
	Window time.Duration
	Trace  bool
	// SetupOnly stops after set-up: extra samples of setup_s cost no window.
	SetupOnly bool
	// Probes runs the per-layer micro-measurements instead of a workload.
	Probes bool
	// Small, set only by tests, shrinks catalogues so the smoke test boots
	// every workload in well under a second; numbers from a small run mean
	// nothing.
	Small bool
	// Dir is scratch space inside the checkout; the caller removes it.
	Dir      string
	TraceOut string
	// sabotage, set only by tests, makes the harness itself corrupt what the
	// oracle sees: "answer", "payload" or "drop".
	sabotage string
}

// result is what one child reports. Metrics holds every number the run
// produced, by the names BENCHMARK.json and the README use; Dists carries
// the sample counts behind the percentiles.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	WindowS   float64            `json:"window_s"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Dists     map[string]dist    `json:"dists,omitempty"`
}

// finish fills what every workload reports the same way: ops operations of
// the workload's own kind, done at opsPerS, against what the process used
// over the window.
func finish(res *result, w window, t *tally, ops, opsPerS float64, u usage) {
	res.WindowS = w.seconds()
	res.Attempted, res.Failed = t.attempted.Load(), t.failed.Load()
	res.Failures = t.first
	res.Metrics["ops_per_s"] = opsPerS
	res.Metrics["e2e.cpu_us_per_op"] = ratio(float64(u.cpu.Nanoseconds())/1e3, ops)
	res.Metrics["mem_held_mib"] = u.heldMiB
	res.Metrics["e2e.max_rss_mib"] = maxRSSMiB()
	res.Metrics["failed_frac"] = float64(res.Failed) / float64(max(res.Attempted, 1))
}

func newResult(s spec) *result {
	return &result{Workload: s.Workload, Seed: s.Seed, Trace: s.Trace,
		Metrics: make(map[string]float64), Dists: make(map[string]dist)}
}

// tally counts operations and keeps the first few failure descriptions; a
// failed check is a failed operation.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	first     []string
}

func (t *tally) ok(n int) { t.attempted.Add(int64(n)) }

func (t *tally) fail(n int, format string, args ...any) {
	t.attempted.Add(int64(n))
	t.failed.Add(int64(n))
	t.mu.Lock()
	if len(t.first) < 8 {
		t.first = append(t.first, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// check records one named end-of-run invariant as a single operation.
func (t *tally) check(ok bool, format string, args ...any) {
	if ok {
		t.ok(1)
	} else {
		t.fail(1, format, args...)
	}
}

// window is the measured interval; warm-up ends where it starts.
type window struct{ start, end time.Time }

func newWindow(s spec) window {
	start := time.Now().Add(s.Warmup)
	return window{start: start, end: start.Add(s.Window)}
}

func (w window) seconds() float64 { return w.end.Sub(w.start).Seconds() }

// sliceOf maps an instant to its one-second slice of the window, or -1.
func (w window) sliceOf(t time.Time) int {
	if t.Before(w.start) || !t.Before(w.end) {
		return -1
	}
	return int(t.Sub(w.start) / time.Second)
}

func (w window) slices() int {
	return int((w.end.Sub(w.start) + time.Second - 1) / time.Second)
}

// samples holds one client's raw per-operation latencies, bucketed by the
// second of the window they completed in. Percentiles are taken from these,
// never from a bucketed histogram: the obs histogram's 1.8× buckets would
// quantise a 100 µs median to a bucket edge.
type samples struct {
	w   window
	ns  [][]uint32 // per slice
	ops []int64    // operations completed per slice (a batch counts its size)
}

func newSamples(w window, perSlice int) *samples {
	s := &samples{w: w, ns: make([][]uint32, w.slices()), ops: make([]int64, w.slices())}
	for i := range s.ns {
		s.ns[i] = make([]uint32, 0, perSlice)
	}
	return s
}

// add records an operation that started at t0 (or was due then, on an open
// loop) and completed at t1, if it completed inside the window.
func (s *samples) add(t0, t1 time.Time, ops int) {
	i := s.w.sliceOf(t1)
	if i < 0 {
		return
	}
	d := t1.Sub(t0)
	if d < 0 {
		d = 0
	}
	if d > time.Duration(^uint32(0)) {
		d = time.Duration(^uint32(0))
	}
	s.ns[i] = append(s.ns[i], uint32(d))
	s.ops[i] += int64(ops)
}

// merged summarises several clients' samples.
type merged struct {
	all      dist      // over the whole window, µs
	sliceP99 []float64 // per full second, µs
	total    int64
}

func mergeSamples(w window, ss ...*samples) merged {
	var m merged
	var all []float64
	for i := 0; i < w.slices(); i++ {
		var sl []float64
		var ops int64
		for _, s := range ss {
			for _, v := range s.ns[i] {
				sl = append(sl, float64(v)/1e3)
			}
			ops += s.ops[i]
		}
		m.total += ops
		all = append(all, sl...)
		// A trailing partial second would bias a per-second figure.
		if w.start.Add(time.Duration(i+1) * time.Second).After(w.end) {
			continue
		}
		if len(sl) > 0 {
			sort.Float64s(sl)
			m.sliceP99 = append(m.sliceP99, quantileSorted(sl, 0.99))
		}
	}
	m.all = summarize(all)
	return m
}

// rate is operations completed inside the window over the window's length:
// every stall, whoever caused it, is in it.
func (m merged) rate(w window) float64 { return ratio(float64(m.total), w.seconds()) }

// steadyP99 is the median over whole seconds of that second's p99 when every
// second has enough samples for one (≥ 10 beyond it), and the whole-window
// p99 otherwise.
func (m merged) steadyP99() float64 {
	if len(m.sliceP99) == 0 || m.all.N/len(m.sliceP99) < 1000 {
		return m.all.P99
	}
	return median(m.sliceP99)
}

// cpuClock reads this process's user+system CPU time.
func cpuClock() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB is this process's peak resident set (Linux reports KiB).
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// usage is what the process used over the window.
type usage struct {
	cpu time.Duration
	// heldMiB is the memory the Go runtime held from the OS (Sys −
	// HeapReleased), averaged over samples taken four times a second. The
	// end-of-run peak (MemStats.Sys) moves in 4 MiB arena steps with how far
	// the allocator happened to outrun a collection — 48 to 68 MiB over ten
	// runs of lookup_http — where this mean held 0.005 to 0.08.
	heldMiB float64
}

// measure sleeps through the window and reports the process's CPU time and
// mean memory across it.
func measure(w window) usage {
	time.Sleep(time.Until(w.start))
	c0 := cpuClock()
	var held float64
	n := 0
	for ; time.Now().Before(w.end); n++ {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		held += float64(ms.Sys-ms.HeapReleased) / (1 << 20)
		time.Sleep(min(250*time.Millisecond, time.Until(w.end)))
	}
	return usage{cpu: cpuClock() - c0, heldMiB: held / float64(max(n, 1))}
}

// ratio is num/den, and 0 when a failed run left nothing to divide by.
func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// sleepUntil returns at t, not up to a millisecond after it: the runtime
// rounds a short timer up to the poller's millisecond when the process is
// otherwise idle, which on an open loop would be charged to the system as
// latency. It sleeps to within spinLead of t and yields in a loop from there.
func sleepUntil(t time.Time) {
	const spinLead = 1200 * time.Microsecond
	if d := time.Until(t) - spinLead; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// listen opens a loopback listener on a free port.
func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// serveHTTP serves h on a fresh loopback socket and returns its base URL and
// a stop function that closes listener and connections.
func serveHTTP(h http.Handler) (addr string, stop func(), err error) {
	ln, err := listen()
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns ErrServerClosed on stop
	}()
	return ln.Addr().String(), func() { _ = hs.Close(); <-done }, nil
}

// cleanup runs teardown steps in reverse order of registration.
type cleanup []func()

func (c *cleanup) add(f func()) { *c = append(*c, f) }

func (c *cleanup) run() {
	for i := len(*c) - 1; i >= 0; i-- {
		(*c)[i]()
	}
	*c = nil
}
