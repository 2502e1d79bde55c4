package store

// Journal tailing: the serve side of replication. A TailReader walks the
// on-disk segment chain in LSN order and returns only records an fsync has
// covered — a follower must never apply an event the leader could still
// lose. Readers keep a per-segment byte offset so steady-state tailing
// reads each byte once: reaching a sealed segment's end hands off to the
// next segment at its header, never re-reading or skipping an LSN (the
// rotation contract TestTailReaderAcrossRotation pins down).
//
// Tailing tolerates the writer: the active segment may end mid-frame (a
// partial bufio flush; frame.ErrTorn, see ARCHITECTURE.md "Framing") —
// parsing simply stops there, and those bytes are beyond durableLSN anyway.
// Checkpoint pruning can delete segments a slow reader still needs; that
// surfaces as ErrTailTruncated, the signal to re-bootstrap the follower
// from the newest checkpoint instead.

import (
	"errors"
	"fmt"
	"io"
	"os"

	"scaddar/internal/frame"
)

// ErrTailTruncated reports that a tail position has been pruned out of the
// journal (superseded by a newer checkpoint): the reader cannot continue
// and the consumer must re-bootstrap from checkpoint state.
var ErrTailTruncated = errors.New("store: tail position pruned from journal")

// TailRecord is one durable journal record as shipped to a follower: the
// assigned LSN and the raw event payload (decode with DecodeEvent).
type TailRecord struct {
	// LSN is the record's journal sequence number.
	LSN uint64
	// Event is the raw event encoding (event.go), without the LSN prefix.
	Event []byte
}

// Durable returns the last fsync-covered LSN and the replication epoch at
// that LSN — the pair replication heartbeats carry.
func (s *Store) Durable() (lsn, epoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.durableLSN, s.durableEpoch
}

// Epoch returns the replication epoch: the count of scaling-operation
// events journaled since the journal's birth (including not-yet-durable
// appends).
func (s *Store) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// DurableNotify returns the current durable LSN and a channel that is
// closed the next time it advances. Callers that find themselves caught up
// select on the channel (plus their own cancellation) instead of polling.
func (s *Store) DurableNotify() (uint64, <-chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.durableLSN, s.notify
}

// CheckpointData re-encodes the newest valid checkpoint from memory for
// shipping to a bootstrapping follower: the covered LSN, the replication
// epoch at that LSN, and the complete checkpoint file bytes (CRC-framed;
// the follower validates them with the same decoder recovery uses).
// Returns ErrNoCheckpoint when the store holds none.
func (s *Store) CheckpointData() (lsn, epoch uint64, data []byte, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.haveCkpt {
		return 0, 0, nil, fmt.Errorf("%w in %s", ErrNoCheckpoint, s.cfg.Dir)
	}
	data, err = encodeCheckpoint(s.ckptLSN, s.ckptEpoch, s.serverCfg, s.metadata)
	if err != nil {
		return 0, 0, nil, err
	}
	return s.ckptLSN, s.ckptEpoch, data, nil
}

// TailReader is a stateful cursor over the durable journal, safe to use
// from one goroutine while the store appends concurrently. It reads each
// segment byte once, handing off across segment rotations without
// re-reading or skipping records.
type TailReader struct {
	s    *Store
	next uint64 // next LSN to return

	// Cursor into the segment currently being read: the segment's first
	// LSN identifies it across rotations, off is the byte offset of the
	// next unread frame. segFirst 0 means "not positioned yet".
	segFirst uint64
	off      int64
	f        *os.File
}

// NewTailReader returns a reader positioned at fromLSN. Positioning is
// lazy: a fromLSN that has been pruned surfaces as ErrTailTruncated from
// the first Next call.
func (s *Store) NewTailReader(fromLSN uint64) *TailReader {
	if fromLSN == 0 {
		fromLSN = 1
	}
	return &TailReader{s: s, next: fromLSN}
}

// Pos returns the next LSN the reader will return — the resume position a
// replication stream advertises.
func (r *TailReader) Pos() uint64 { return r.next }

// Close releases the reader's open segment handle. The reader may be used
// again afterwards; the next read reopens.
func (r *TailReader) Close() {
	if r.f != nil {
		r.f.Close()
		r.f = nil
	}
	r.segFirst = 0
}

// Next returns up to max durable records starting at the reader's position,
// advancing it past what was returned. An empty batch with a nil error
// means the reader is caught up with the durable frontier — block on
// DurableNotify before calling again. ErrTailTruncated means the position
// was pruned and the consumer must re-bootstrap from a checkpoint.
func (r *TailReader) Next(max int) ([]TailRecord, error) {
	if max <= 0 {
		max = 256
	}
	s := r.s
	s.mu.Lock()
	durable := s.durableLSN
	if r.next > durable {
		s.mu.Unlock()
		return nil, nil
	}
	// Find the segment holding r.next. The chain is sorted; positions below
	// the oldest segment have been pruned.
	var seg segmentMeta
	found := false
	pruned := len(s.segments) == 0 || r.next < s.segments[0].first
	for _, sm := range s.segments {
		if r.next >= sm.first && (r.next <= sm.last || r.next == sm.first) {
			seg, found = sm, true
			break
		}
	}
	s.mu.Unlock()
	if !found {
		if pruned {
			return nil, fmt.Errorf("%w: LSN %d", ErrTailTruncated, r.next)
		}
		// Between segments with no holder (an empty active segment whose
		// first record is not durable yet): caught up.
		return nil, nil
	}

	// Hand off to the found segment if the cursor is elsewhere.
	if r.segFirst != seg.first || r.f == nil {
		r.Close()
		f, err := os.Open(seg.path)
		if err != nil {
			if os.IsNotExist(err) {
				// Pruned between the lock release and the open.
				return nil, fmt.Errorf("%w: LSN %d", ErrTailTruncated, r.next)
			}
			return nil, err
		}
		r.f = f
		r.segFirst = seg.first
		r.off = segHeaderLen
		// A mid-segment start (reconnect resume) skips already-consumed
		// records by parsing from the header; offsets then stay aligned.
		if r.next > seg.first {
			if err := r.skipTo(seg, r.next); err != nil {
				r.Close()
				return nil, err
			}
		}
	}
	return r.read(seg, durable, max)
}

// skipTo advances the open segment's offset to the frame holding lsn by
// parsing (and discarding) the frames before it.
func (r *TailReader) skipTo(seg segmentMeta, lsn uint64) error {
	expect := seg.first
	for expect < lsn {
		rec, n, err := readFrameAt(r.f, r.off)
		if err != nil {
			return fmt.Errorf("store: tail resume at LSN %d in %s: %w", lsn, seg.path, err)
		}
		if rec.LSN != expect {
			return fmt.Errorf("store: tail resume: segment %s has LSN %d where %d expected", seg.path, rec.LSN, expect)
		}
		r.off += n
		expect++
	}
	return nil
}

// read parses frames from the cursor until the batch is full, the durable
// frontier is reached, or the segment ends (sealed: the caller's next call
// hands off to the successor; active: caught up).
func (r *TailReader) read(seg segmentMeta, durable uint64, max int) ([]TailRecord, error) {
	var out []TailRecord
	for len(out) < max && r.next <= durable {
		if r.next > seg.last && seg.last >= seg.first {
			// Sealed segment exhausted under the snapshot we took; the next
			// call re-resolves the chain and hands off.
			break
		}
		rec, n, err := readFrameAt(r.f, r.off)
		if err != nil {
			if err == io.EOF || errors.Is(err, frame.ErrTorn) {
				// Bytes past the durable frontier not fully flushed yet.
				break
			}
			return out, fmt.Errorf("store: tail: segment %s at offset %d: %w", seg.path, r.off, err)
		}
		if rec.LSN != r.next {
			return out, fmt.Errorf("store: tail: segment %s has LSN %d where %d expected",
				seg.path, rec.LSN, r.next)
		}
		r.off += n
		r.next++
		out = append(out, rec)
	}
	return out, nil
}

// readFrameAt parses one journal record at the given offset, returning the
// record and the frame's total byte length. io.EOF and frame.ErrTorn mean
// the file ends at or inside the frame.
func readFrameAt(f *os.File, off int64) (TailRecord, int64, error) {
	payload, err := frame.ReadAt(f, off, maxRecordLen)
	if err != nil {
		return TailRecord{}, 0, err
	}
	c := frame.Cursor{Buf: payload}
	rec := TailRecord{LSN: c.Uvarint("LSN"), Event: c.Rest()}
	if !c.OK() {
		return TailRecord{}, 0, fmt.Errorf("store: tail record has no LSN")
	}
	return rec, frame.HeaderLen + int64(len(payload)), nil
}
