package store

import (
	"time"

	"scaddar/internal/cm"
	"scaddar/internal/obs"
)

// storeMetrics holds the journal's registry cells. All updates happen under
// the store mutex, but the cells themselves are atomic so scrapers read
// them without taking it.
type storeMetrics struct {
	appends     *obs.Counter
	appendBytes *obs.Counter
	fsyncs      *obs.Counter
	fsyncTime   *obs.Histogram
	fsyncBatch  *obs.Histogram
	checkpoints *obs.Counter
	replayed    *obs.Counter

	lsn        *obs.Gauge
	durableLSN *obs.Gauge
	ckptLSN    *obs.Gauge
	segments   *obs.Gauge
	sinceCkpt  *obs.Gauge
	failed     *obs.Gauge
}

// Observe registers the store's metric families in reg and starts
// publishing journal activity into them: append counts and bytes, fsync
// count/latency/batch size, checkpoints, and LSN/segment gauges. Call it
// once after Open; it may be called before or after Bootstrap/Recover.
func (s *Store) Observe(reg *obs.Registry) {
	m := &storeMetrics{
		appends:     reg.NewCounter("store_appends_total", "Journal records appended."),
		appendBytes: reg.NewCounter("store_append_bytes_total", "Journal bytes appended (framed records)."),
		fsyncs:      reg.NewCounter("store_fsyncs_total", "Journal fsyncs issued (group commits)."),
		fsyncTime:   reg.NewHistogram("store_fsync_seconds", "Journal flush+fsync latency.", obs.LatencyBuckets()),
		fsyncBatch:  reg.NewHistogram("store_fsync_batch_records", "Records made durable per group commit.", obs.SizeBuckets()),
		checkpoints: reg.NewCounter("store_checkpoints_total", "Checkpoints written."),
		replayed:    reg.NewCounter("store_replayed_events_total", "Journal events replayed by recovery."),

		lsn:        reg.NewGauge("store_lsn", "Last assigned journal LSN."),
		durableLSN: reg.NewGauge("store_durable_lsn", "Last LSN covered by an fsync."),
		ckptLSN:    reg.NewGauge("store_checkpoint_lsn", "LSN of the newest checkpoint."),
		segments:   reg.NewGauge("store_segments", "Journal segments in the trusted chain."),
		sinceCkpt:  reg.NewGauge("store_events_since_checkpoint", "Journal events past the newest checkpoint (crash-replay cost)."),
		failed:     reg.NewGauge("store_failed", "1 when the journal has hit its sticky failure, else 0."),
	}
	s.mu.Lock()
	s.metrics = m
	s.publishLocked()
	s.mu.Unlock()
}

// SetTraceRing installs (or, with nil, removes) the ring Recover appends
// replayed-event spans to. Spans carry Round = -1 — replay re-applies
// events without re-executing rounds — but are otherwise identical to what
// the live server's emit path appended for the same events, so a recovered
// ring retraces the journaled history.
func (s *Store) SetTraceRing(r *obs.Ring) {
	s.mu.Lock()
	s.trace = r
	s.mu.Unlock()
}

// publishLocked refreshes the gauge cells from store state. Caller holds mu;
// no-op until Observe installs the cells.
func (s *Store) publishLocked() {
	m := s.metrics
	if m == nil {
		return
	}
	m.lsn.Set(float64(s.nextLSN - 1))
	m.durableLSN.Set(float64(s.durableLSN))
	m.ckptLSN.Set(float64(s.ckptLSN))
	m.segments.SetInt(len(s.segments))
	m.sinceCkpt.Set(float64(s.nextLSN - 1 - s.ckptLSN))
	if s.err != nil {
		m.failed.Set(1)
	} else {
		m.failed.Set(0)
	}
}

// observeAppend records one successful append of n framed bytes. Caller
// holds mu.
func (s *Store) observeAppend(n int) {
	if s.metrics == nil {
		return
	}
	s.metrics.appends.Inc()
	s.metrics.appendBytes.Add(uint64(n))
	s.publishLocked()
}

// observeSync records one group commit that made batch records durable in
// elapsed time. Caller holds mu.
func (s *Store) observeSync(batch int, elapsed time.Duration) {
	s.fsyncs++
	if s.metrics == nil {
		return
	}
	s.metrics.fsyncs.Inc()
	s.metrics.fsyncTime.ObserveDuration(elapsed)
	if batch > 0 {
		s.metrics.fsyncBatch.Observe(float64(batch))
	}
	s.publishLocked()
}

// observeReplay records one replayed event and its trace span. Caller holds
// mu.
func (s *Store) observeReplay(ev cm.Event) {
	if s.metrics != nil {
		s.metrics.replayed.Inc()
	}
	if s.trace != nil {
		s.trace.Append(cm.EventSpan(ev))
	}
}
