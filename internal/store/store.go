// Package store is the durable state store for the CM server: a write-ahead
// journal of cm.Events plus periodic checkpoints of cm.Metadata. It realizes
// the paper's claim that a pseudo-random placement server needs "only a
// storage structure for recording scaling operations" — the whole control
// plane (REMAP chain, rebaseline epochs, object catalog, disk health,
// migration and rebuild progress) persists in a few kilobytes of log, and
// block locations are still never stored anywhere.
//
// Usage: Open a data directory; Bootstrap a fresh server into it (initial
// checkpoint + event sink) or Recover the server it holds (newest valid
// checkpoint, then journal tail replay). At the default Config.SyncEvery of
// 1 every Append fsyncs before it returns, so a crash loses no event Append
// returned from. SyncEvery > 1 turns that into group commit: fsync runs once
// that many records have accumulated and on Sync, and a crash can lose the
// events appended since, never checkpointed or synced state. AppendBehind
// and a Sync run beside the writer are group commit for a writer that shows
// nothing before it is durable (the gateway's drain rounds; ARCHITECTURE.md,
// "Events and replay — the durability contract"). Recovery truncates the
// journal at the first torn or corrupt record rather than failing.
package store

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"scaddar/internal/cm"
	"scaddar/internal/frame"
	"scaddar/internal/fsio"
	"scaddar/internal/obs"
)

// Config fixes a store's location and durability batching.
type Config struct {
	// Dir is the data directory (created if missing, unless ReadOnly).
	Dir string
	// SegmentBytes is the journal segment rotation threshold; 0 means 1 MiB.
	//unreached:testsupport the store, repl and gateway tests rotate after a few records
	SegmentBytes int64
	// SyncEvery is the group-commit batch: an fsync runs once that many
	// records have accumulated (and always on Sync). 0 means 1 — every
	// append is synced before returning.
	SyncEvery int
	// ReadOnly opens the store for inspection: no repair truncation, no
	// segment creation, no appends. The `recover` CLI subcommand uses it.
	ReadOnly bool
}

// Sentinel errors.
var (
	// ErrNoCheckpoint: the directory holds no usable checkpoint, so there
	// is no base state to recover (fresh directory, or every checkpoint
	// file is corrupt).
	ErrNoCheckpoint = errors.New("store: no usable checkpoint")
	// ErrReadOnly: a mutation was attempted on a ReadOnly store.
	ErrReadOnly = errors.New("store: store is read-only")
	// ErrCorrupt: the journal's segment chain is inconsistent in a way
	// truncation cannot repair (duplicate or overlapping segments, a gap
	// below the tail).
	ErrCorrupt = errors.New("store: corrupt journal")
)

// checkpointRetain is how many checkpoints survive pruning. Keeping one
// extra means a checkpoint file lost to corruption (detected by its CRC)
// falls back to its predecessor plus a longer journal replay.
const checkpointRetain = 2

// segmentMeta tracks one on-disk segment of the trusted chain.
type segmentMeta struct {
	first uint64 // header's first LSN
	last  uint64 // last valid LSN (first-1 while empty)
	path  string
	size  int64 // trusted byte length
}

// RecoveryInfo describes what opening and recovering a data directory found
// and repaired.
type RecoveryInfo struct {
	// CheckpointLSN is the LSN of the checkpoint recovery started from.
	CheckpointLSN uint64 `json:"checkpointLsn"`
	// ReplayedEvents is the number of journal records replayed on top.
	ReplayedEvents int `json:"replayedEvents"`
	// LSN is the last event reflected in the recovered state.
	LSN uint64 `json:"lsn"`
	// TornTail reports that the journal ended in a torn or corrupt record
	// and was truncated there.
	TornTail bool `json:"tornTail,omitempty"`
	// TornReason says why the tail was distrusted.
	TornReason string `json:"tornReason,omitempty"`
	// TruncatedBytes is how much the truncation discarded.
	TruncatedBytes int64 `json:"truncatedBytes,omitempty"`
	// DroppedSegments counts segments discarded outside the trusted chain:
	// past the truncation point, or stale pre-checkpoint segments
	// superseded by a newer chain resuming at the checkpoint.
	DroppedSegments int `json:"droppedSegments,omitempty"`
	// DroppedCheckpoints counts checkpoint files skipped as invalid.
	DroppedCheckpoints int `json:"droppedCheckpoints,omitempty"`
}

// Status is a point-in-time view of the store for health endpoints.
type Status struct {
	// Dir is the data directory this store has open.
	Dir string `json:"dir"`
	// LSN is the last assigned journal sequence number.
	LSN uint64 `json:"lsn"`
	// DurableLSN is the last LSN covered by an fsync.
	DurableLSN uint64 `json:"durableLsn"`
	// Fsyncs counts the journal fsyncs issued since Open.
	Fsyncs uint64 `json:"fsyncs"`
	// CheckpointLSN is the LSN of the newest checkpoint.
	CheckpointLSN uint64 `json:"checkpointLsn"`
	// Epoch is the replication epoch: scaling-operation events journaled
	// since the journal's birth.
	Epoch uint64 `json:"epoch"`
	// Segments is the number of journal segments in the trusted chain.
	Segments int `json:"segments"`
	// EventsSinceCheckpoint is the crash-replay cost right now.
	EventsSinceCheckpoint uint64 `json:"eventsSinceCheckpoint"`
	// Err carries the sticky journal failure, empty when healthy.
	Err string `json:"err,omitempty"`
	// Recovery, when the store was recovered, reports what recovery found.
	Recovery *RecoveryInfo `json:"recovery,omitempty"`
}

// Store is an open data directory. Methods are safe for concurrent use; the
// intended topology is one writer (the server's owner goroutine), Syncs
// beside it, and concurrent Status readers.
type Store struct {
	mu  sync.Mutex
	cfg Config
	id  string // journal identity (see JournalID); immutable after Open

	segments   []segmentMeta
	active     *os.File
	w          *bufio.Writer
	activeSize int64

	nextLSN    uint64 // next LSN to assign (last assigned + 1)
	durableLSN uint64 // last LSN known fsynced
	ckptLSN    uint64 // newest valid checkpoint's LSN
	haveCkpt   bool
	ckpts      []uint64 // valid checkpoint LSNs on disk, ascending

	// epoch counts scaling-operation events (cm.IsEpochEvent) since the
	// journal's birth; durableEpoch is its value at durableLSN and ckptEpoch
	// its value at ckptLSN. Replication fences follower reads on it.
	epoch        uint64
	durableEpoch uint64
	ckptEpoch    uint64

	// notify is closed and replaced whenever durableLSN advances, so journal
	// tails can block for new durable records without polling.
	notify chan struct{}

	serverCfg cm.Config    // from the newest valid checkpoint
	metadata  *cm.Metadata // from the newest valid checkpoint
	tail      []record     // journal records past the checkpoint

	unsynced int
	fsyncs   uint64    // journal fsyncs issued (Status)
	syncing  bool      // a Sync's fsync is in flight outside mu
	synced   sync.Cond // on mu: wakes whoever waits to fsync next
	err      error     // sticky: first append/sync failure kills the journal

	recovery RecoveryInfo

	// metrics and trace are the optional observability hooks (see
	// observe.go): registry cells published under mu, and the ring Recover
	// appends replayed-event spans to.
	metrics *storeMetrics
	trace   *obs.Ring
}

// Open opens (or, unless ReadOnly, creates) a data directory, scans its
// checkpoints and journal chain, and repairs a torn tail by truncating it.
// Use HasState to tell a fresh directory from one holding a server, then
// Bootstrap or Recover accordingly.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("store: no data directory configured")
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = 1 << 20
	}
	if cfg.SyncEvery <= 0 {
		cfg.SyncEvery = 1
	}
	if !cfg.ReadOnly {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	s := &Store{cfg: cfg, nextLSN: 1, notify: make(chan struct{})}
	s.synced.L = &s.mu
	if err := s.load(); err != nil {
		return nil, err
	}
	if err := s.loadJournalID(); err != nil {
		return nil, err
	}
	return s, nil
}

// journalIDName is the data-directory file holding the journal identity.
const journalIDName = "journal.id"

// loadJournalID reads the directory's journal identity, minting one on the
// first writable Open. The identity outlives every checkpoint and segment:
// it names the journal itself, so two directories never share one even when
// their LSN ranges happen to line up. Replication resume handshakes carry
// it — a follower that applied journal A must never splice records from
// journal B onto its state (see internal/repl).
func (s *Store) loadJournalID() error {
	path := filepath.Join(s.cfg.Dir, journalIDName)
	data, err := os.ReadFile(path)
	if err == nil {
		id := string(data)
		if raw, decErr := hex.DecodeString(id); decErr == nil && len(raw) == 16 {
			s.id = id
			return nil
		}
		// An unreadable identity is treated like a missing one: mint a new
		// identity, which (safely) forces followers to re-bootstrap.
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("store: %w", err)
	}
	if s.cfg.ReadOnly {
		return nil // inspection-only open of a legacy directory: no identity
	}
	var raw [16]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return fmt.Errorf("store: minting journal identity: %w", err)
	}
	s.id = hex.EncodeToString(raw[:])
	if err := fsio.WriteFileAtomic(path, []byte(s.id), 0o644); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// JournalID returns the directory's journal identity: 32 hex characters
// minted on the first writable Open and stable for the directory's lifetime.
// Empty only for a ReadOnly open of a directory no writer has touched since
// identities were introduced.
func (s *Store) JournalID() string { return s.id }

// load scans the directory: newest valid checkpoint, then the segment
// chain, truncating at the first torn or corrupt record.
func (s *Store) load() error {
	entries, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var segs []segmentMeta
	var ckptLSNs []uint64
	for _, e := range entries {
		if lsn, ok := parseLSNName(e.Name(), segPrefix, segSuffix); ok {
			segs = append(segs, segmentMeta{first: lsn, path: filepath.Join(s.cfg.Dir, e.Name())})
		} else if lsn, ok := parseLSNName(e.Name(), ckptPrefix, ckptSuffix); ok {
			ckptLSNs = append(ckptLSNs, lsn)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	sort.Slice(ckptLSNs, func(i, j int) bool { return ckptLSNs[i] < ckptLSNs[j] })

	// Newest checkpoint that validates wins; invalid ones are dropped.
	for i := len(ckptLSNs) - 1; i >= 0; i-- {
		path := filepath.Join(s.cfg.Dir, checkpointName(ckptLSNs[i]))
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		lsn, epoch, cfg, md, err := DecodeCheckpointData(data)
		if err != nil || lsn != ckptLSNs[i] {
			s.recovery.DroppedCheckpoints++
			if !s.cfg.ReadOnly {
				os.Remove(path)
			}
			continue
		}
		if !s.haveCkpt {
			s.haveCkpt = true
			s.ckptLSN = lsn
			s.ckptEpoch = epoch
			s.serverCfg = cfg
			s.metadata = md
		}
		s.ckpts = append(s.ckpts, ckptLSNs[i])
	}
	sort.Slice(s.ckpts, func(i, j int) bool { return s.ckpts[i] < s.ckpts[j] })

	// Walk the segment chain in LSN order, trusting the longest valid
	// prefix. A torn record or an inter-segment gap truncates the chain
	// there; duplicate or overlapping segments are unrepairable.
	chainLast := uint64(0)
	for i := range segs {
		sm := &segs[i]
		data, err := os.ReadFile(sm.path)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		scan, scanErr := scanSegment(data)
		if scanErr != nil {
			// Not a usable segment (torn or foreign header): drop it and
			// everything after it.
			s.dropSegments(segs[i:], fmt.Sprintf("unusable segment %s: %v", filepath.Base(sm.path), scanErr))
			break
		}
		if scan.firstLSN != sm.first {
			return fmt.Errorf("%w: segment %s header declares first LSN %d",
				ErrCorrupt, filepath.Base(sm.path), scan.firstLSN)
		}
		if len(s.segments) > 0 {
			if scan.firstLSN <= chainLast {
				return fmt.Errorf("%w: segments %s and %s overlap at LSN %d",
					ErrCorrupt, filepath.Base(s.segments[len(s.segments)-1].path),
					filepath.Base(sm.path), scan.firstLSN)
			}
			if scan.firstLSN != chainLast+1 {
				if s.haveCkpt && scan.firstLSN == s.ckptLSN+1 && chainLast <= s.ckptLSN {
					// The checkpoint bridges the gap: everything the old
					// chain is missing sits at or below the checkpoint, and
					// this segment resumes exactly past it — the shape left
					// behind when a prior recovery truncated the journal
					// below the checkpoint and appends resumed at ckptLSN+1.
					// The stale pre-checkpoint segments are the redundant
					// side; discard them, never the newer durable chain.
					s.discardStaleSegments()
				} else {
					s.dropSegments(segs[i:], fmt.Sprintf("gap: journal ends at LSN %d, next segment starts at %d",
						chainLast, scan.firstLSN))
					break
				}
			}
		}
		sm.last = scan.lastLSN()
		sm.size = scan.validLen
		s.segments = append(s.segments, *sm)
		chainLast = sm.last
		for _, rec := range scan.records {
			if !s.haveCkpt || rec.lsn > s.ckptLSN {
				s.tail = append(s.tail, rec)
			}
		}
		if scan.truncated {
			s.recovery.TornTail = true
			s.recovery.TornReason = scan.reason
			s.recovery.TruncatedBytes += int64(len(data)) - scan.validLen
			if !s.cfg.ReadOnly {
				if err := os.Truncate(sm.path, scan.validLen); err != nil {
					return fmt.Errorf("store: repairing %s: %w", sm.path, err)
				}
			}
			// Bytes past a tear are suspect, and normally so is every later
			// segment. But while the trusted chain still sits at or below a
			// valid checkpoint, a later segment is only accepted if the gap
			// logic above vouches for it (contiguous, or resuming exactly at
			// ckptLSN+1 under the checkpoint's cover) — so keep walking
			// instead of discarding fsync-acknowledged post-checkpoint
			// records along with the genuinely torn ones.
			if s.haveCkpt && chainLast <= s.ckptLSN {
				continue
			}
			if i+1 < len(segs) {
				s.dropSegments(segs[i+1:], "segments past the torn record")
			}
			break
		}
	}

	if chainLast > s.ckptLSN || (!s.haveCkpt && chainLast > 0) {
		s.nextLSN = chainLast + 1
	} else {
		s.nextLSN = s.ckptLSN + 1
	}
	if len(s.tail) > 0 && s.haveCkpt && s.tail[0].lsn != s.ckptLSN+1 {
		return fmt.Errorf("%w: checkpoint at LSN %d but journal tail starts at %d",
			ErrCorrupt, s.ckptLSN, s.tail[0].lsn)
	}
	s.durableLSN = s.nextLSN - 1
	// The replication epoch resumes from the checkpoint's value plus every
	// scaling-operation event the surviving tail holds.
	s.epoch = s.ckptEpoch
	for _, rec := range s.tail {
		c := frame.Cursor{Buf: rec.event}
		if cm.IsEpochEvent(cm.EventKind(c.Int("event kind"))) {
			s.epoch++
		}
	}
	s.durableEpoch = s.epoch
	return nil
}

// discardStaleSegments drops the chain accepted so far: every record it
// holds is at or below the newest checkpoint (the caller checks), so a
// newer segment resuming at ckptLSN+1 supersedes it entirely. Unlike
// dropSegments this is a repair with no data loss — the checkpoint covers
// everything removed — so it does not mark the tail torn.
func (s *Store) discardStaleSegments() {
	s.recovery.DroppedSegments += len(s.segments)
	if !s.cfg.ReadOnly {
		for _, sm := range s.segments {
			os.Remove(sm.path)
		}
	}
	s.segments = s.segments[:0]
	s.tail = s.tail[:0]
}

// dropSegments discards (and, unless ReadOnly, deletes) segments that fall
// outside the trusted chain.
func (s *Store) dropSegments(segs []segmentMeta, reason string) {
	s.recovery.DroppedSegments += len(segs)
	if !s.recovery.TornTail {
		s.recovery.TornTail = true
		s.recovery.TornReason = reason
	}
	if s.cfg.ReadOnly {
		return
	}
	for _, sm := range segs {
		os.Remove(sm.path)
	}
}

// HasState reports whether the directory holds a recoverable server (a
// valid checkpoint exists).
func (s *Store) HasState() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.haveCkpt
}

// Err returns the sticky journal error, if any append or sync has failed.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// LSN returns the last assigned LSN (0 before any event).
func (s *Store) LSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextLSN - 1
}

// EventsSinceCheckpoint returns how many events the journal holds past the
// newest checkpoint — the replay a crash right now would incur.
func (s *Store) EventsSinceCheckpoint() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextLSN - 1 - s.ckptLSN
}

// Status returns a point-in-time view for health endpoints.
func (s *Store) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		Dir:                   s.cfg.Dir,
		LSN:                   s.nextLSN - 1,
		DurableLSN:            s.durableLSN,
		Fsyncs:                s.fsyncs,
		CheckpointLSN:         s.ckptLSN,
		Epoch:                 s.epoch,
		Segments:              len(s.segments),
		EventsSinceCheckpoint: s.nextLSN - 1 - s.ckptLSN,
	}
	if s.err != nil {
		st.Err = s.err.Error()
	}
	info := s.recovery
	st.Recovery = &info
	return st
}

// fail records the first journal failure; the store stops accepting appends
// so the on-disk log never develops an interior gap.
func (s *Store) fail(err error) error {
	if s.err == nil {
		s.err = fmt.Errorf("store: journal failed: %w", err)
	}
	return s.err
}

// Append journals one event, assigning it the next LSN. The record is
// durable once a group-commit fsync covers it (every SyncEvery appends, or
// an explicit Sync). After any failure the store refuses further appends —
// a journal with a hole cannot be replayed.
func (s *Store) Append(ev cm.Event) (uint64, error) { return s.append(ev, true) }

// AppendBehind is Append without its fsync, whatever SyncEvery says: for a
// writer that shows nobody the event until a Sync or a synced Append has
// made it durable (ARCHITECTURE.md, "Events and replay").
func (s *Store) AppendBehind(ev cm.Event) (uint64, error) { return s.append(ev, false) }

func (s *Store) append(ev cm.Event, sync bool) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return 0, s.err
	}
	if s.cfg.ReadOnly {
		return 0, ErrReadOnly
	}
	event, err := EncodeEvent(ev)
	if err != nil {
		return 0, s.fail(err)
	}
	lsn := s.nextLSN
	rec := appendRecord(nil, lsn, event)
	if n := len(rec) - frame.HeaderLen; n > maxRecordLen {
		// Recovery and tailing distrust any record over the bound: acking
		// this one would lose it, and every event after it, at the next open.
		return 0, s.fail(fmt.Errorf("event kind %d needs a %d-byte record, over the %d-byte bound", ev.Kind, n, maxRecordLen))
	}
	if err := s.ensureActive(); err != nil {
		return 0, s.fail(err)
	}
	if s.activeSize >= s.cfg.SegmentBytes {
		if err := s.rotate(); err != nil {
			return 0, s.fail(err)
		}
	}
	if _, err := s.w.Write(rec); err != nil {
		return 0, s.fail(err)
	}
	if cm.IsEpochEvent(ev.Kind) {
		s.epoch++
	}
	s.activeSize += int64(len(rec))
	sm := &s.segments[len(s.segments)-1]
	sm.last = lsn
	sm.size = s.activeSize
	s.nextLSN++
	s.unsynced++
	s.observeAppend(len(rec))
	if sync && s.unsynced >= s.cfg.SyncEvery {
		if err := s.syncLocked(); err != nil {
			return 0, s.fail(err)
		}
	}
	return lsn, nil
}

// Sink adapts the store into a cm.EventSink. Journal failures are sticky
// and surfaced via Err and Status rather than through the sink (the server
// mutation has already happened; what remains is refusing to pretend later
// events are durable).
func (s *Store) Sink() cm.EventSink {
	return func(ev cm.Event) { _, _ = s.Append(ev) }
}

// Sync flushes and fsyncs the journal — the group-commit point: when it
// returns, every record appended before it is durable. It fsyncs outside the
// store's mutex, so appends go on meanwhile and a goroutine beside the writer
// can commit for it. With every record durable it returns at once. One fsync
// runs at a time: another Sync, a synced Append, a checkpoint, rotation or
// Close waits for the one in flight, and any fsync error fails the journal —
// the kernel reports a lost write-back once per open file, so a later fsync
// that succeeds vouches for nothing the failed one flushed.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.syncing {
		s.synced.Wait()
	}
	if s.err != nil || s.cfg.ReadOnly || s.durableLSN == s.nextLSN-1 {
		return s.err
	}
	if err := s.w.Flush(); err != nil {
		return s.fail(err)
	}
	f, lsn, epoch, batch := s.active, s.nextLSN-1, s.epoch, int(s.nextLSN-1-s.durableLSN)
	s.unsynced, s.syncing = 0, true
	s.mu.Unlock()
	start := time.Now()
	err := fsync(f)
	took := time.Since(start)
	s.mu.Lock()
	s.syncing = false
	s.synced.Broadcast()
	if err != nil {
		return s.fail(err)
	}
	s.advance(lsn, epoch)
	s.observeSync(batch, took)
	return nil
}

// fsync is the fsync Sync runs outside the mutex; tests hold it or fail it.
var fsync = (*os.File).Sync

func (s *Store) syncLocked() error {
	for s.syncing {
		s.synced.Wait()
	}
	if s.err != nil {
		return s.err
	}
	start := time.Now()
	if s.w != nil {
		if err := s.w.Flush(); err != nil {
			return err
		}
	}
	if s.active != nil {
		if err := s.active.Sync(); err != nil {
			return err
		}
	}
	batch := s.unsynced
	s.unsynced = 0
	s.advance(s.nextLSN-1, s.epoch)
	s.observeSync(batch, time.Since(start))
	return nil
}

// advance moves the durable frontier forward to lsn (at epoch) and wakes tails.
func (s *Store) advance(lsn, epoch uint64) {
	if lsn <= s.durableLSN {
		return
	}
	s.durableLSN, s.durableEpoch = lsn, epoch
	close(s.notify)
	s.notify = make(chan struct{})
}

// ensureActive opens or creates the segment appends go to.
func (s *Store) ensureActive() error {
	if s.active != nil {
		return nil
	}
	if n := len(s.segments); n > 0 {
		sm := &s.segments[n-1]
		if sm.last == s.nextLSN-1 && sm.size < s.cfg.SegmentBytes {
			f, err := os.OpenFile(sm.path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				return err
			}
			s.active = f
			s.w = bufio.NewWriter(f)
			s.activeSize = sm.size
			return nil
		}
	}
	return s.newSegment()
}

// newSegment creates the segment starting at the next LSN.
func (s *Store) newSegment() error {
	path := filepath.Join(s.cfg.Dir, segmentName(s.nextLSN))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	hdr := segmentHeader(s.nextLSN)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := fsio.SyncDir(s.cfg.Dir); err != nil {
		f.Close()
		return err
	}
	s.active = f
	s.w = bufio.NewWriter(f)
	s.activeSize = int64(len(hdr))
	s.segments = append(s.segments, segmentMeta{
		first: s.nextLSN, last: s.nextLSN - 1, path: path, size: s.activeSize,
	})
	return nil
}

// rotate seals the active segment and starts the next one. An empty active
// segment is left in place.
func (s *Store) rotate() error {
	if s.active == nil {
		return s.ensureActive()
	}
	if n := len(s.segments); n > 0 && s.segments[n-1].last < s.segments[n-1].first {
		return nil // nothing written yet; reuse it
	}
	if err := s.syncLocked(); err != nil {
		return err
	}
	if err := s.active.Close(); err != nil {
		return err
	}
	s.active = nil
	s.w = nil
	return s.newSegment()
}

// Checkpoint serializes the server's state, making every journaled event at
// or below the returned LSN redundant, then rotates the journal and prunes
// segments and checkpoints nothing can need anymore. It requires a
// quiescent, healthy server: mid-reorganization or degraded-array calls
// (failed or rebuilding disk, pending rebuild work, lost blocks) fail with
// cm.ErrBusy wrapped in the ExportMetadata error, and the caller retries
// later — a checkpoint must never capture an all-healthy array that the
// journaled fail/rebuild events layered on top would contradict.
func (s *Store) Checkpoint(srv *cm.Server) (uint64, error) {
	md, err := srv.ExportMetadata()
	if err != nil {
		return 0, err
	}
	cfg := srv.Config()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return 0, s.err
	}
	if s.cfg.ReadOnly {
		return 0, ErrReadOnly
	}
	lsn := s.nextLSN - 1
	data, err := encodeCheckpoint(lsn, s.epoch, cfg, md)
	if err != nil {
		return 0, err
	}
	// Events at or below the checkpoint LSN must be durable before the
	// checkpoint claims to cover them.
	if err := s.syncLocked(); err != nil {
		return 0, s.fail(err)
	}
	if err := fsio.WriteFileAtomic(filepath.Join(s.cfg.Dir, checkpointName(lsn)), data, 0o644); err != nil {
		return 0, s.fail(err)
	}
	s.haveCkpt = true
	s.ckptLSN = lsn
	s.ckptEpoch = s.epoch
	s.serverCfg = cfg
	s.metadata = md
	s.tail = nil
	if len(s.ckpts) == 0 || s.ckpts[len(s.ckpts)-1] != lsn {
		s.ckpts = append(s.ckpts, lsn)
	}
	if err := s.rotate(); err != nil {
		return 0, s.fail(err)
	}
	s.prune()
	if s.metrics != nil {
		s.metrics.checkpoints.Inc()
	}
	s.publishLocked()
	return lsn, nil
}

// prune deletes checkpoints beyond the retention count and segments wholly
// covered by the oldest retained checkpoint. Deletion is best-effort:
// leftover files cost space, not correctness.
func (s *Store) prune() {
	for len(s.ckpts) > checkpointRetain {
		os.Remove(filepath.Join(s.cfg.Dir, checkpointName(s.ckpts[0])))
		s.ckpts = s.ckpts[1:]
	}
	if len(s.ckpts) == 0 {
		return
	}
	floor := s.ckpts[0]
	kept := s.segments[:0]
	for i, sm := range s.segments {
		// Never prune the active (last) segment; earlier segments go once
		// their whole range is at or below the retention floor.
		if i < len(s.segments)-1 && sm.last <= floor && sm.last >= sm.first {
			os.Remove(sm.path)
			continue
		}
		kept = append(kept, sm)
	}
	s.segments = kept
}

// Bootstrap initializes a fresh data directory with a server's state: an
// initial checkpoint, then the server's event sink is pointed at the
// journal. It refuses a directory that already holds state — recover that
// instead, or point the server at an empty directory.
func (s *Store) Bootstrap(srv *cm.Server) error {
	s.mu.Lock()
	if s.haveCkpt {
		dir, lsn := s.cfg.Dir, s.ckptLSN
		s.mu.Unlock()
		return fmt.Errorf("store: %s already holds state (checkpoint at LSN %d); recover it or use an empty directory", dir, lsn)
	}
	if len(s.tail) > 0 {
		dir := s.cfg.Dir
		s.mu.Unlock()
		return fmt.Errorf("store: %s has a journal but no usable checkpoint; refusing to bootstrap over it", dir)
	}
	s.mu.Unlock()
	if _, err := s.Checkpoint(srv); err != nil {
		return err
	}
	srv.SetEventSink(s.Sink())
	return nil
}

// Close flushes, syncs, and releases the journal. The store must not be
// used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil {
		return nil
	}
	err := s.syncLocked()
	if cerr := s.active.Close(); err == nil {
		err = cerr
	}
	s.active = nil
	s.w = nil
	if err != nil {
		return s.fail(err)
	}
	return nil
}
