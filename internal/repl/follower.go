package repl

// Follower side: one connection at a time to the leader, applied by a
// single goroutine that owns the replica's cm.Server. The goroutine
// publishes an immutable view — locator snapshot plus LSN/epoch markers —
// through one atomic pointer, so concurrent readers pay a single load and
// no lock, the same discipline the gateway's read path uses.
//
// The client is built for a hostile network: every dial and every frame
// read carries a deadline, reconnects back off exponentially with seeded
// jitter (capped), and the resume handshake carries the applied LSN so a
// reconnect re-streams nothing already applied — records at or below the
// applied LSN are skipped, which also makes duplicated segments from a
// faulty path harmless.

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"scaddar/internal/cm"
	"scaddar/internal/frame"
	"scaddar/internal/obs"
	"scaddar/internal/placement"
	"scaddar/internal/prng"
	"scaddar/internal/scaddar"
	"scaddar/internal/store"
)

// FollowerConfig configures a journal-tailing replica.
type FollowerConfig struct {
	// Addr is the leader's replication listener address. Required.
	Addr string
	// X0 rebuilds the placement X0 generator; it must match the leader's
	// generator family, exactly as in crash recovery. Required.
	X0 placement.X0Func
	// Factory builds per-object generators for locator snapshots. Required.
	Factory scaddar.SourceFactory
	// DialTimeout bounds each connection attempt; 0 means 2s.
	//unreached:testsupport this and the four timing fields below: the repl and gateway tests run reconnects in milliseconds
	DialTimeout time.Duration
	// ReadTimeout bounds each frame read; 0 means 2s. Size it to at least
	// three leader heartbeat intervals or healthy idle connections churn.
	//unreached:testsupport see DialTimeout
	ReadTimeout time.Duration
	// BackoffBase is the first reconnect delay; 0 means 50ms. Each failed
	// attempt doubles it (with jitter) up to BackoffCap, 0 meaning 2s.
	//unreached:testsupport see DialTimeout
	BackoffBase time.Duration
	// BackoffCap caps the reconnect delay.
	//unreached:testsupport see DialTimeout
	BackoffCap time.Duration
	// MaxLagEvents is the staleness budget: reads fail with cm.ErrStaleRead
	// while the replica trails the leader's durable frontier by more than
	// this many events. 0 disables the budget (reads fence only on epochs).
	MaxLagEvents uint64
	// Seed drives the reconnect jitter; 0 picks a fixed default. Chaos
	// tests pin it for reproducible schedules.
	//unreached:testsupport see DialTimeout
	Seed uint64
	// Registry, when non-nil, receives the follower's metrics.
	Registry *obs.Registry
	// Logf, when non-nil, receives connection-lifecycle log lines.
	Logf func(format string, args ...any)
}

// View is the follower's published read state: an immutable locator
// snapshot plus the positions that decide fencing and staleness. Readers
// load it once and work off the copy.
type View struct {
	// Snap is the locator snapshot at AppliedLSN.
	Snap *cm.LocatorSnapshot
	// AppliedLSN is the last journal record reflected in Snap.
	AppliedLSN uint64
	// Epoch is the replica's applied replication epoch.
	Epoch uint64
	// LeaderLSN is the leader's durable frontier as last advertised.
	LeaderLSN uint64
	// LeaderEpoch is the leader's epoch at LeaderLSN.
	LeaderEpoch uint64
}

// Lag returns how many durable leader events the view has not applied.
func (v *View) Lag() uint64 {
	if v.LeaderLSN <= v.AppliedLSN {
		return 0
	}
	return v.LeaderLSN - v.AppliedLSN
}

// FollowerStatus reports the replica's position for /v1/replication.
type FollowerStatus struct {
	// Leader is the configured leader address.
	Leader string `json:"leader"`
	// Connected reports whether a session is live right now.
	Connected bool `json:"connected"`
	// Bootstrapped reports whether the replica has state to serve.
	Bootstrapped bool `json:"bootstrapped"`
	// JournalID identifies the journal the replica's state was applied
	// from, empty before the first bootstrap. A reconnect only resumes when
	// it matches the leader's; otherwise the leader re-bootstraps us.
	JournalID string `json:"journalId"`
	// AppliedLSN is the last applied journal record.
	AppliedLSN uint64 `json:"appliedLsn"`
	// Epoch is the applied replication epoch.
	Epoch uint64 `json:"epoch"`
	// LeaderLSN is the leader's last advertised durable frontier.
	LeaderLSN uint64 `json:"leaderLsn"`
	// LeaderEpoch is the leader's epoch at that frontier.
	LeaderEpoch uint64 `json:"leaderEpoch"`
	// LagEvents is LeaderLSN - AppliedLSN (0 when caught up).
	LagEvents uint64 `json:"lagEvents"`
	// Reconnects counts completed (failed or dropped) sessions.
	Reconnects uint64 `json:"reconnects"`
	// Snapshots counts full-state bootstraps applied.
	Snapshots uint64 `json:"snapshots"`
}

// followerMetrics holds the follower's registry cells.
type followerMetrics struct {
	applied     *obs.Gauge
	lag         *obs.Gauge
	records     *obs.Counter
	reconnects  *obs.Counter
	snapshots   *obs.Counter
	fencedReads *obs.Counter
	staleReads  *obs.Counter
}

func newFollowerMetrics(reg *obs.Registry) *followerMetrics {
	if reg == nil {
		return nil
	}
	return &followerMetrics{
		applied:     reg.NewGauge("repl_follower_applied_lsn", "Last journal record applied by the replica."),
		lag:         reg.NewGauge("repl_follower_lag_events", "Durable leader events not yet applied."),
		records:     reg.NewCounter("repl_follower_records_applied_total", "Journal records applied."),
		reconnects:  reg.NewCounter("repl_follower_reconnects_total", "Replication sessions that ended and were retried."),
		snapshots:   reg.NewCounter("repl_follower_snapshots_total", "Full checkpoint bootstraps applied."),
		fencedReads: reg.NewCounter("repl_follower_fenced_reads_total", "Reads refused across an unapplied scaling epoch."),
		staleReads:  reg.NewCounter("repl_follower_stale_reads_total", "Reads refused over the staleness budget."),
	}
}

// Follower tails a leader's journal and serves epoch-fenced block lookups
// from its own locator snapshot. Create with StartFollower; stop with
// Close.
type Follower struct {
	cfg  FollowerConfig
	view atomic.Pointer[View]
	done chan struct{}
	wg   sync.WaitGroup

	mu         sync.Mutex
	srv        *cm.Server // owned by the run goroutine while running
	journal    journalID  // identity of the journal srv's state came from
	connected  bool
	reconnects uint64
	snapshots  uint64

	metrics *followerMetrics
}

// StartFollower validates the config and starts the tailing loop. The
// follower serves fenced errors until its first bootstrap completes.
func StartFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("repl: FollowerConfig.Addr is required")
	}
	if cfg.X0 == nil || cfg.Factory == nil {
		return nil, fmt.Errorf("repl: FollowerConfig.X0 and Factory are required")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = 2 * time.Second
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 50 * time.Millisecond
	}
	if cfg.BackoffCap <= 0 {
		cfg.BackoffCap = 2 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0x5cadda4
	}
	f := &Follower{
		cfg:     cfg,
		done:    make(chan struct{}),
		metrics: newFollowerMetrics(cfg.Registry),
	}
	f.wg.Add(1)
	go f.run()
	return f, nil
}

// Close stops the tailing loop and waits for it to exit. The replica's
// last published view keeps serving reads (a dead follower is stale, not
// gone), still subject to fencing and the staleness budget.
func (f *Follower) Close() error {
	f.mu.Lock()
	select {
	case <-f.done:
		f.mu.Unlock()
		return nil
	default:
	}
	close(f.done)
	f.mu.Unlock()
	f.wg.Wait()
	return nil
}

// Server exposes the replica's underlying server for inspection. The run
// goroutine mutates it while the follower is live — call only after Close,
// or from tests that know the stream is quiescent.
func (f *Follower) Server() *cm.Server {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.srv
}

// View returns the current published read state, nil before the first
// bootstrap.
func (f *Follower) View() *View { return f.view.Load() }

// Status reports the replica's position.
func (f *Follower) Status() FollowerStatus {
	st := FollowerStatus{Leader: f.cfg.Addr}
	if v := f.view.Load(); v != nil {
		st.Bootstrapped = true
		st.AppliedLSN = v.AppliedLSN
		st.Epoch = v.Epoch
		st.LeaderLSN = v.LeaderLSN
		st.LeaderEpoch = v.LeaderEpoch
		st.LagEvents = v.Lag()
	}
	f.mu.Lock()
	if f.journal != (journalID{}) {
		st.JournalID = hex.EncodeToString(f.journal[:])
	}
	st.Connected = f.connected
	st.Reconnects = f.reconnects
	st.Snapshots = f.snapshots
	f.mu.Unlock()
	return st
}

// Locate answers a block lookup from the replica, returning the logical
// disk and the applied LSN the answer is valid at. Fails with
// cm.ErrEpochFenced while a known scaling operation is unapplied, and with
// cm.ErrStaleRead before bootstrap or over the staleness budget.
func (f *Follower) Locate(object, index int) (disk int, lsn uint64, err error) {
	v := f.view.Load()
	if v == nil {
		if f.metrics != nil {
			f.metrics.staleReads.Inc()
		}
		return 0, 0, fmt.Errorf("%w: replica not bootstrapped", cm.ErrStaleRead)
	}
	if v.LeaderEpoch > v.Epoch {
		if f.metrics != nil {
			f.metrics.fencedReads.Inc()
		}
		return 0, 0, fmt.Errorf("%w: applied epoch %d, leader epoch %d",
			cm.ErrEpochFenced, v.Epoch, v.LeaderEpoch)
	}
	if f.cfg.MaxLagEvents > 0 && v.Lag() > f.cfg.MaxLagEvents {
		if f.metrics != nil {
			f.metrics.staleReads.Inc()
		}
		return 0, 0, fmt.Errorf("%w: %d events behind (budget %d)",
			cm.ErrStaleRead, v.Lag(), f.cfg.MaxLagEvents)
	}
	disk, err = v.Snap.Locate(object, index)
	return disk, v.AppliedLSN, err
}

func (f *Follower) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
	}
}

// run is the follower's lifetime: connect, stream, back off, repeat.
func (f *Follower) run() {
	defer f.wg.Done()
	rng := prng.NewSplitMix64(f.cfg.Seed)
	delay := f.cfg.BackoffBase
	for {
		select {
		case <-f.done:
			return
		default:
		}
		progressed, err := f.session()
		if err != nil {
			f.logf("repl follower: session: %v", err)
		}
		f.mu.Lock()
		f.reconnects++
		f.mu.Unlock()
		if f.metrics != nil {
			f.metrics.reconnects.Inc()
		}
		if progressed {
			delay = f.cfg.BackoffBase
		}
		// Full jitter: sleep uniformly in [base/2, delay] so a fleet of
		// followers does not reconnect in lockstep.
		sleep := delay/2 + time.Duration(rng.Next()%uint64(delay/2+1))
		select {
		case <-f.done:
			return
		case <-time.After(sleep):
		}
		if delay *= 2; delay > f.cfg.BackoffCap {
			delay = f.cfg.BackoffCap
		}
	}
}

// session runs one connection to completion. It reports whether the
// session made progress (hello accepted or records applied) — progress
// resets the reconnect backoff.
func (f *Follower) session() (progressed bool, err error) {
	var fromLSN uint64
	if v := f.view.Load(); v != nil {
		fromLSN = v.AppliedLSN + 1
	}
	f.mu.Lock()
	journal := f.journal
	f.mu.Unlock()
	conn, err := net.DialTimeout("tcp", f.cfg.Addr, f.cfg.DialTimeout)
	if err != nil {
		return false, err
	}
	defer conn.Close()
	conn.SetWriteDeadline(time.Now().Add(f.cfg.DialTimeout))
	if _, err := conn.Write(encodeHandshake(fromLSN, journal)); err != nil {
		return false, err
	}
	f.mu.Lock()
	f.connected = true
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		f.connected = false
		f.mu.Unlock()
	}()

	r := bufio.NewReader(conn)
	for {
		select {
		case <-f.done:
			return progressed, nil
		default:
		}
		conn.SetReadDeadline(time.Now().Add(f.cfg.ReadTimeout))
		// A fresh buffer per frame: applied events and the inline
		// checkpoint keep slices of the payload.
		payload, err := frame.Read(r, new([]byte), maxFrameLen)
		if err != nil {
			return progressed, err
		}
		switch payload[0] {
		case frameHelloSnapshot:
			h, err := decodeHelloSnapshot(payload)
			if err != nil {
				return progressed, err
			}
			if err := f.applySnapshot(h); err != nil {
				return progressed, err
			}
		case frameHelloResume:
			h, err := decodeHelloResume(payload)
			if err != nil {
				return progressed, err
			}
			if err := f.applyResume(h, fromLSN); err != nil {
				return progressed, err
			}
		case frameRecord:
			lsn, event, err := decodeRecord(payload)
			if err != nil {
				return progressed, err
			}
			if err := f.applyRecord(lsn, event); err != nil {
				return progressed, err
			}
		case frameHeartbeat:
			h, err := decodeHeartbeat(payload)
			if err != nil {
				return progressed, err
			}
			f.applyHeartbeat(h)
		default:
			return progressed, fmt.Errorf("%w: unknown frame type %d", errBadFrame, payload[0])
		}
		progressed = true
	}
}

// applySnapshot replaces the replica's entire state with a shipped
// checkpoint — the bootstrap path, and the recovery path when checkpoint
// pruning overtook this replica.
func (f *Follower) applySnapshot(h helloSnapshot) error {
	lsn, epoch, cfg, md, err := store.DecodeCheckpointData(h.ckptData)
	if err != nil {
		return err
	}
	if lsn != h.ckptLSN || epoch != h.ckptEpoch {
		return fmt.Errorf("%w: hello advertises LSN %d epoch %d, checkpoint holds %d/%d",
			errBadFrame, h.ckptLSN, h.ckptEpoch, lsn, epoch)
	}
	srv, err := cm.RestoreServer(cfg, md, f.cfg.X0)
	if err != nil {
		return err
	}
	if err := srv.VerifyIntegrity(); err != nil {
		return fmt.Errorf("repl: shipped checkpoint failed verification: %w", err)
	}
	f.mu.Lock()
	f.srv = srv
	f.journal = h.journal
	f.snapshots++
	f.mu.Unlock()
	if f.metrics != nil {
		f.metrics.snapshots.Inc()
	}
	f.logf("repl follower: bootstrapped at LSN %d (epoch %d)", lsn, epoch)
	return f.publish(&View{
		AppliedLSN:  lsn,
		Epoch:       epoch,
		LeaderLSN:   h.durableLSN,
		LeaderEpoch: h.leaderEpoch,
	}, true)
}

// applyResume validates the leader's resume offer against our position —
// and against the journal our state was applied from. A leader offering to
// resume a different journal's LSNs is a protocol violation (the leader
// itself should have forced a bootstrap); dropping the connection is safe,
// because the reconnect re-advertises our identity and gets a snapshot.
func (f *Follower) applyResume(h helloResume, fromLSN uint64) error {
	v := f.view.Load()
	if v == nil || h.resumeLSN != fromLSN {
		return fmt.Errorf("%w: resume at LSN %d, asked for %d", errBadFrame, h.resumeLSN, fromLSN)
	}
	f.mu.Lock()
	journal := f.journal
	f.mu.Unlock()
	if h.journal != journal {
		return fmt.Errorf("%w: resume offers journal %x, state applied from %x",
			errBadFrame, h.journal, journal)
	}
	return f.publish(&View{
		Snap:        v.Snap,
		AppliedLSN:  v.AppliedLSN,
		Epoch:       v.Epoch,
		LeaderLSN:   maxU64(v.LeaderLSN, h.durableLSN),
		LeaderEpoch: maxU64(v.LeaderEpoch, h.leaderEpoch),
	}, false)
}

// applyRecord applies one streamed journal record through the same replay
// dispatch crash recovery uses. Duplicates (at or below the applied LSN)
// are skipped; gaps are protocol errors.
func (f *Follower) applyRecord(lsn uint64, event []byte) error {
	v := f.view.Load()
	if v == nil || v.Snap == nil {
		return fmt.Errorf("repl: record at LSN %d before any snapshot", lsn)
	}
	if lsn <= v.AppliedLSN {
		return nil // duplicate delivery (reconnect overlap, hostile path)
	}
	if lsn != v.AppliedLSN+1 {
		return fmt.Errorf("repl: record gap: got LSN %d after %d", lsn, v.AppliedLSN)
	}
	ev, err := store.DecodeEvent(event)
	if err != nil {
		return err
	}
	f.mu.Lock()
	srv := f.srv
	f.mu.Unlock()
	if err := store.ApplyEvent(srv, ev); err != nil {
		return fmt.Errorf("repl: applying %s at LSN %d: %w", ev.Kind, lsn, err)
	}
	epoch := v.Epoch
	if cm.IsEpochEvent(ev.Kind) {
		epoch++
	}
	if f.metrics != nil {
		f.metrics.records.Inc()
	}
	return f.publish(&View{
		AppliedLSN:  lsn,
		Epoch:       epoch,
		LeaderLSN:   maxU64(v.LeaderLSN, lsn),
		LeaderEpoch: maxU64(v.LeaderEpoch, epoch),
	}, true)
}

// applyHeartbeat refreshes the leader's frontier markers; the snapshot is
// untouched, so this is just a pointer swap.
func (f *Follower) applyHeartbeat(h heartbeat) {
	v := f.view.Load()
	if v == nil {
		return
	}
	f.publish(&View{
		Snap:        v.Snap,
		AppliedLSN:  v.AppliedLSN,
		Epoch:       v.Epoch,
		LeaderLSN:   maxU64(v.LeaderLSN, h.durableLSN),
		LeaderEpoch: maxU64(v.LeaderEpoch, h.durableEpoch),
	}, false)
}

// publish installs a new view, rebuilding the locator snapshot from the
// replica's server when the applied state changed.
func (f *Follower) publish(v *View, rebuild bool) error {
	if rebuild {
		f.mu.Lock()
		srv := f.srv
		f.mu.Unlock()
		sn, err := srv.BuildSnapshot(f.cfg.Factory)
		if err != nil {
			return err
		}
		v.Snap = sn
	}
	f.view.Store(v)
	if f.metrics != nil {
		f.metrics.applied.Set(float64(v.AppliedLSN))
		f.metrics.lag.Set(float64(v.Lag()))
	}
	return nil
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
