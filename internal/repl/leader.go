package repl

// Leader side: accept follower connections and stream the durable journal
// at each one. Every connection gets its own goroutine and its own
// store.TailReader; the store's durable-notify channel turns the stream
// into push (no polling) while a heartbeat timer keeps idle connections
// provably alive and keeps followers' lag measurements fresh.
//
// A follower that falls behind checkpoint pruning is not dropped: the
// leader notices ErrTailTruncated mid-stream and splices a fresh
// helloSnapshot into the connection, which the follower applies as a full
// state replacement. The stream then continues from the checkpoint's LSN.

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"scaddar/internal/frame"
	"scaddar/internal/obs"
	"scaddar/internal/store"
)

// writeTimeout bounds each frame batch's network write. A follower that
// cannot drain the stream that long is disconnected (it will reconnect and
// resume).
const writeTimeout = 10 * time.Second

// LeaderConfig configures a journal-shipping leader.
type LeaderConfig struct {
	// Store is the open journal to serve. Required.
	Store *store.Store
	// Heartbeat is how often an idle connection receives a durable-frontier
	// frame; 0 means 500ms. Followers size their read timeouts from it.
	Heartbeat time.Duration
	// Registry, when non-nil, receives the leader's metrics.
	Registry *obs.Registry
	// Logf, when non-nil, receives connection-lifecycle log lines.
	Logf func(format string, args ...any)
}

// FollowerConnStatus describes one live follower connection.
type FollowerConnStatus struct {
	// Remote is the follower's network address.
	Remote string `json:"remote"`
	// SentLSN is the last journal record shipped on this connection.
	SentLSN uint64 `json:"sentLsn"`
	// Snapshots counts full-state bootstraps sent (1 for a fresh follower,
	// more if pruning overtook it mid-stream).
	Snapshots int `json:"snapshots"`
}

// LeaderStatus is a point-in-time view of the leader for /v1/replication.
type LeaderStatus struct {
	// Addr is the listening address.
	Addr string `json:"addr"`
	// JournalID is the identity of the journal being shipped
	// (store.JournalID); followers refuse to mix journals.
	JournalID string `json:"journalId"`
	// DurableLSN is the leader's shippable frontier.
	DurableLSN uint64 `json:"durableLsn"`
	// Epoch is the leader's replication epoch at DurableLSN.
	Epoch uint64 `json:"epoch"`
	// Followers lists the live connections.
	Followers []FollowerConnStatus `json:"followers"`
}

// Leader serves the journal to followers. Start it with Serve; stop it
// with Close (which also disconnects every follower).
type Leader struct {
	cfg LeaderConfig
	id  journalID // the store's journal identity in wire form
	// maxFrame is the bound every frame is written under — maxFrameLen, what
	// followers read under; a field so a test can shrink it.
	maxFrame uint32

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]*leaderConn
	closed bool
	wg     sync.WaitGroup

	metrics *leaderMetrics
}

// leaderConn is the per-connection state Status reports.
type leaderConn struct {
	mu        sync.Mutex
	remote    string
	sentLSN   uint64
	snapshots int
}

// leaderMetrics holds the leader's registry cells.
type leaderMetrics struct {
	accepted   *obs.Counter
	active     *obs.Gauge
	records    *obs.Counter
	heartbeats *obs.Counter
	snapshots  *obs.Counter
}

func newLeaderMetrics(reg *obs.Registry) *leaderMetrics {
	if reg == nil {
		return nil
	}
	return &leaderMetrics{
		accepted:   reg.NewCounter("repl_leader_connections_total", "Follower connections accepted."),
		active:     reg.NewGauge("repl_leader_followers", "Live follower connections right now."),
		records:    reg.NewCounter("repl_leader_records_sent_total", "Journal records shipped to followers."),
		heartbeats: reg.NewCounter("repl_leader_heartbeats_total", "Heartbeat frames sent to idle followers."),
		snapshots:  reg.NewCounter("repl_leader_snapshots_total", "Full checkpoint bootstraps shipped."),
	}
}

// NewLeader builds a leader over an open store.
func NewLeader(cfg LeaderConfig) (*Leader, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("repl: LeaderConfig.Store is required")
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 500 * time.Millisecond
	}
	id, err := parseJournalID(cfg.Store.JournalID())
	if err != nil {
		return nil, err
	}
	return &Leader{
		cfg:      cfg,
		id:       id,
		maxFrame: maxFrameLen,
		conns:    make(map[net.Conn]*leaderConn),
		metrics:  newLeaderMetrics(cfg.Registry),
	}, nil
}

// Serve starts accepting followers on ln and returns immediately. The
// listener is owned by the leader from here on: Close closes it.
func (l *Leader) Serve(ln net.Listener) {
	l.mu.Lock()
	l.ln = ln
	l.mu.Unlock()
	l.wg.Add(1)
	go l.acceptLoop(ln)
}

// Addr returns the listening address, or nil before Serve.
func (l *Leader) Addr() net.Addr {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ln == nil {
		return nil
	}
	return l.ln.Addr()
}

// Status reports the leader's frontier and live follower connections.
func (l *Leader) Status() LeaderStatus {
	durable, epoch := l.cfg.Store.Durable()
	st := LeaderStatus{JournalID: l.cfg.Store.JournalID(), DurableLSN: durable, Epoch: epoch}
	l.mu.Lock()
	if l.ln != nil {
		st.Addr = l.ln.Addr().String()
	}
	for _, lc := range l.conns {
		lc.mu.Lock()
		st.Followers = append(st.Followers, FollowerConnStatus{
			Remote:    lc.remote,
			SentLSN:   lc.sentLSN,
			Snapshots: lc.snapshots,
		})
		lc.mu.Unlock()
	}
	l.mu.Unlock()
	return st
}

// Close stops accepting, disconnects every follower, and waits for the
// per-connection goroutines to drain.
func (l *Leader) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	ln := l.ln
	for c := range l.conns {
		c.Close()
	}
	l.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	l.wg.Wait()
	return nil
}

func (l *Leader) logf(format string, args ...any) {
	if l.cfg.Logf != nil {
		l.cfg.Logf(format, args...)
	}
}

func (l *Leader) acceptLoop(ln net.Listener) {
	defer l.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			conn.Close()
			return
		}
		lc := &leaderConn{remote: conn.RemoteAddr().String()}
		l.conns[conn] = lc
		l.wg.Add(1)
		l.mu.Unlock()
		if l.metrics != nil {
			l.metrics.accepted.Inc()
			l.metrics.active.Add(1)
		}
		go func() {
			defer l.wg.Done()
			err := l.serveConn(conn, lc)
			conn.Close()
			l.mu.Lock()
			delete(l.conns, conn)
			l.mu.Unlock()
			if l.metrics != nil {
				l.metrics.active.Add(-1)
			}
			if err != nil {
				l.logf("repl leader: follower %s: %v", lc.remote, err)
			}
		}()
	}
}

// connWriter pairs the buffered frame writer with its deadline-bearing
// conn so every flush is bounded.
type connWriter struct {
	conn    net.Conn
	w       *bufio.Writer
	timeout time.Duration
}

func (cw *connWriter) flush() error {
	cw.conn.SetWriteDeadline(time.Now().Add(cw.timeout))
	return cw.w.Flush()
}

// serveConn speaks the protocol at one follower until the connection or
// the leader dies. A nil return is a clean disconnect.
func (l *Leader) serveConn(conn net.Conn, lc *leaderConn) error {
	conn.SetReadDeadline(time.Now().Add(writeTimeout))
	fromLSN, clientID, err := readHandshake(conn)
	if err != nil {
		return err
	}
	conn.SetReadDeadline(time.Time{})
	l.logf("repl leader: follower %s connected, fromLSN=%d", lc.remote, fromLSN)

	// A resume position only means something inside the journal it counts
	// LSNs in: a follower carrying another journal's state (or a position
	// past our durable frontier, i.e. a journal this leader lost) is
	// re-bootstrapped, never resumed.
	if fromLSN > 0 {
		if clientID != l.id {
			l.logf("repl leader: follower %s applied journal %x, ours is %x: forcing bootstrap",
				lc.remote, clientID, l.id)
			fromLSN = 0
		} else if durable, _ := l.cfg.Store.Durable(); fromLSN > durable+1 {
			l.logf("repl leader: follower %s asks for LSN %d past durable %d: forcing bootstrap",
				lc.remote, fromLSN, durable)
			fromLSN = 0
		}
	}

	cw := &connWriter{conn: conn, w: bufio.NewWriter(conn), timeout: writeTimeout}
	reader := l.cfg.Store.NewTailReader(fromLSN)
	defer func() { // reader is reassigned by snapshot splices; nil after one that failed
		if reader != nil {
			reader.Close()
		}
	}()

	// Resume if the journal still holds the requested position; bootstrap
	// otherwise. Probing with Next both answers that and fetches the first
	// batch, which is sent right after the hello.
	var firstBatch []store.TailRecord
	if fromLSN > 0 {
		firstBatch, err = reader.Next(tailBatch)
	}
	if fromLSN == 0 || errors.Is(err, store.ErrTailTruncated) {
		reader, err = l.sendSnapshot(cw, lc, reader)
		if err != nil {
			return err
		}
		firstBatch = nil
	} else if err != nil {
		return err
	} else {
		durable, epoch := l.cfg.Store.Durable()
		if err := frame.Write(cw.w, encodeHelloResume(helloResume{
			journal:     l.id,
			resumeLSN:   fromLSN,
			durableLSN:  durable,
			leaderEpoch: epoch,
		}), l.maxFrame); err != nil {
			return err
		}
	}
	if err := l.sendRecords(cw, lc, firstBatch); err != nil {
		return err
	}

	for {
		batch, err := reader.Next(tailBatch)
		if errors.Is(err, store.ErrTailTruncated) {
			// Pruning overtook this follower mid-stream: replace its state.
			reader.Close()
			if reader, err = l.sendSnapshot(cw, lc, reader); err != nil {
				return err
			}
			continue
		}
		if err != nil {
			return err
		}
		if len(batch) > 0 {
			if err := l.sendRecords(cw, lc, batch); err != nil {
				return err
			}
			continue
		}
		// Caught up: advertise the frontier, then wait for it to advance.
		durable, ch := l.cfg.Store.DurableNotify()
		if durable >= reader.Pos() {
			continue // advanced between Next and DurableNotify
		}
		_, epoch := l.cfg.Store.Durable()
		if err := frame.Write(cw.w, encodeHeartbeat(heartbeat{durableLSN: durable, durableEpoch: epoch}), l.maxFrame); err != nil {
			return err
		}
		if err := cw.flush(); err != nil {
			return err
		}
		if l.metrics != nil {
			l.metrics.heartbeats.Inc()
		}
		if closed := l.waitAdvance(ch); closed {
			return nil
		}
	}
}

// tailBatch is how many records one Next call fetches — small enough to
// interleave heartbeats, large enough to amortize framing.
const tailBatch = 256

// waitAdvance blocks until the durable frontier advances, a heartbeat is
// due, or the leader closes. Reports whether the leader closed.
func (l *Leader) waitAdvance(ch <-chan struct{}) bool {
	t := time.NewTimer(l.cfg.Heartbeat)
	defer t.Stop()
	select {
	case <-ch:
	case <-t.C:
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

// sendSnapshot ships a full bootstrap hello and returns a fresh reader
// positioned just past the checkpoint it carried.
func (l *Leader) sendSnapshot(cw *connWriter, lc *leaderConn, old *store.TailReader) (*store.TailReader, error) {
	if old != nil {
		old.Close()
	}
	ckLSN, ckEpoch, data, err := l.cfg.Store.CheckpointData()
	if err != nil {
		return nil, err
	}
	durable, epoch := l.cfg.Store.Durable()
	h := helloSnapshot{
		journal:     l.id,
		ckptLSN:     ckLSN,
		ckptEpoch:   ckEpoch,
		durableLSN:  durable,
		leaderEpoch: epoch,
		ckptData:    data,
	}
	if err := frame.Write(cw.w, encodeHelloSnapshot(h), l.maxFrame); err != nil {
		if errors.Is(err, frame.ErrBound) {
			// Every follower reads under the same bound and would drop this
			// frame as corrupt, reconnect and be sent it again, for ever: ship
			// nothing and say why. Bootstrapping from a larger checkpoint
			// needs chunked or content-addressed snapshots (ROADMAP P5).
			err = fmt.Errorf("checkpoint of %d bytes exceeds the frame bound, not shipped: %w", len(data), err)
		}
		return nil, err
	}
	if err := cw.flush(); err != nil {
		return nil, err
	}
	lc.mu.Lock()
	lc.snapshots++
	lc.sentLSN = ckLSN
	lc.mu.Unlock()
	if l.metrics != nil {
		l.metrics.snapshots.Inc()
	}
	return l.cfg.Store.NewTailReader(ckLSN + 1), nil
}

// sendRecords frames a batch of journal records and flushes.
func (l *Leader) sendRecords(cw *connWriter, lc *leaderConn, batch []store.TailRecord) error {
	if len(batch) == 0 {
		return nil
	}
	for _, rec := range batch {
		if err := frame.Write(cw.w, encodeRecord(rec.LSN, rec.Event), l.maxFrame); err != nil {
			return err
		}
	}
	if err := cw.flush(); err != nil {
		return err
	}
	lc.mu.Lock()
	lc.sentLSN = batch[len(batch)-1].LSN
	lc.mu.Unlock()
	if l.metrics != nil {
		l.metrics.records.Add(uint64(len(batch)))
	}
	return nil
}
