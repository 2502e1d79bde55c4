package main

import (
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// sampleEvery is the tracing rate on request-driven workloads: one request
// in 64 carries a span identifier.
const sampleEvery = 64

// traceHeader carries a sampled request's identifier to the wrapped
// handlers, so server-side spans join the client's.
const traceHeader = "X-Bench-Span"

// span is one timed interval at a layer boundary. Spans of one request share
// ID; Parent names the span that caused this one. Start and End are
// nanoseconds since the recorder was created.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory and writes them out when the run ends. All
// spans are recorded from the benchmark's own files, around calls into each
// layer's public functions; nothing inside the system is instrumented. A nil
// recorder records nothing, so untraced runs pay one nil check.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// inflight lets a wrapped shard handler find the span of a request the
	// router forwarded to it: the router does not copy headers, so the join
	// is by request path, looked up only while a sampled request is open.
	inflight sync.Map
	open     atomic.Int32
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) add(name string, id uint64, parent string, start, end time.Time) {
	if r == nil {
		return
	}
	s := span{Name: name, ID: id, Parent: parent, Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// shadow times fn as a child span. It is how layers below a boundary the
// benchmark cannot wrap get a span: the call the handler just made against
// the same live state is repeated outside the parent's interval, and
// subtracted from the parent by duration. fn runs reps times and the span
// is one repetition long: a 100 ns call is below what two clock reads
// resolve.
func (r *recorder) shadow(name string, id uint64, parent string, reps int, fn func()) {
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	r.add(name, id, parent, t0, t0.Add(time.Since(t0)/time.Duration(reps)))
}

func (r *recorder) write(path string) error {
	if r == nil || path == "" {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selves returns every span's self time in µs, grouped by name: its
// duration minus its direct children's, within one request identifier.
func (r *recorder) selves() map[string][]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	type key struct {
		id   uint64
		name string
	}
	dur := make(map[key]float64)
	children := make(map[key]float64)
	for _, s := range r.spans {
		dur[key{s.ID, s.Name}] += float64(s.End - s.Start)
		if s.Parent != "" {
			children[key{s.ID, s.Parent}] += float64(s.End - s.Start)
		}
	}
	by := make(map[string][]float64)
	for k, d := range dur {
		by[k.name] = append(by[k.name], max(d-children[k], 0)/1e3)
	}
	return by
}

// selfTimes is a layer's self time per request: the median over sampled
// requests, by span name.
func (r *recorder) selfTimes() map[string]float64 {
	out := make(map[string]float64)
	for name, vs := range r.selves() {
		out[name] = median(vs)
	}
	return out
}

// selfMeans is a layer's self time per round: its total over the number of
// root spans, so a span only some rounds have (the republish during a
// drain) is averaged over all of them, as the mean round time it is laid
// against is.
func (r *recorder) selfMeans(root string) map[string]float64 {
	by := r.selves()
	out := make(map[string]float64)
	if n := len(by[root]); n > 0 {
		for name, vs := range by {
			sum := 0.0
			for _, v := range vs {
				sum += v
			}
			out[name] = sum / float64(n)
		}
	}
	return out
}

// spanHandler wraps a layer's http.Handler: a request that carries the trace
// header (or, behind the router, matches an in-flight sampled path) gets a
// span around ServeHTTP, and after() may add shadow children.
type spanHandler struct {
	rec    *recorder
	name   string
	parent string
	next   http.Handler
	// byPath joins on the request path instead of the header (shards behind
	// the router); register announces the path to such handlers.
	byPath   bool
	register bool
	after    func(id uint64, path string)
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var id uint64
	if h.byPath {
		if h.rec.open.Load() > 0 {
			if v, ok := h.rec.inflight.Load(r.URL.Path); ok {
				id = v.(uint64)
			}
		}
	} else if v := r.Header.Get(traceHeader); v != "" {
		id, _ = strconv.ParseUint(v, 10, 64)
	}
	if id == 0 {
		h.next.ServeHTTP(w, r)
		return
	}
	if h.register {
		h.rec.inflight.Store(r.URL.Path, id)
		h.rec.open.Add(1)
	}
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	h.rec.add(h.name, id, h.parent, t0, time.Now())
	if h.register {
		h.rec.open.Add(-1)
		h.rec.inflight.Delete(r.URL.Path)
	}
	if h.after != nil {
		// Off the request path: net/http sends the reply only when this
		// handler returns, and the client is timing that.
		go h.after(id, r.URL.Path)
	}
}

// wrap returns next unchanged when tracing is off, so untraced runs serve
// the system's own handler with nothing in front of it.
func (r *recorder) wrap(h *spanHandler) http.Handler {
	if r == nil {
		return h.next
	}
	h.rec = r
	return h
}

// budgetRow is one line of a latency budget: a layer's self time per
// request (or per round on the paced workloads), in µs.
type budgetRow struct {
	Layer  string  `json:"layer"`
	SelfUS float64 `json:"self_us"`
	Source string  `json:"source"`
}

// budget sums the rows against the untraced end-to-end figure.
type budget struct {
	Rows        []budgetRow
	EndToEndUS  float64
	Unexplained float64
	// Baseline is the probe the transport row can be read against.
	Baseline     float64
	BaselineName string
}

func makeBudget(rows []budgetRow, endToEndUS float64) budget {
	b := budget{Rows: rows, EndToEndUS: endToEndUS}
	sum := 0.0
	for _, r := range rows {
		sum += r.SelfUS
	}
	if endToEndUS > 0 {
		b.Unexplained = (endToEndUS - sum) / endToEndUS
	}
	return b
}

func (b budget) sum() float64 {
	s := 0.0
	for _, r := range b.Rows {
		s += r.SelfUS
	}
	return s
}

// largest returns the layer with the biggest self time.
func (b budget) largest() string {
	var top budgetRow
	for _, r := range b.Rows {
		if r.SelfUS > top.SelfUS {
			top = r
		}
	}
	return top.Layer
}
