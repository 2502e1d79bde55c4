package dataplane

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"scaddar/internal/bufpool"
	"scaddar/internal/disk"
	"scaddar/internal/frame"
)

// Typed errors for the segment store, distinguishable with errors.Is.
var (
	// ErrPayloadNotFound is returned by Get for a block the store does not
	// hold.
	ErrPayloadNotFound = errors.New("dataplane: payload not found")
	// ErrStoreClosed is returned by operations on a closed store.
	ErrStoreClosed = errors.New("dataplane: segment store closed")
	// ErrCorruptPayload is returned when a stored record fails its CRC or
	// structural checks on read — the on-disk bytes rotted after the
	// recovery scan accepted them.
	ErrCorruptPayload = errors.New("dataplane: corrupt payload record")
)

// Segment file format constants. Records travel in the shared envelope
// (internal/frame; see ARCHITECTURE.md "Framing") and, like the metadata
// journal, the recovery scan trusts the longest valid prefix.
const (
	segMagic   = "SCPB" // "SCaddar Payload Blocks"
	segVersion = 1
	// segHeaderLen is magic + version byte + segment sequence.
	segHeaderLen = len(segMagic) + 1 + 8
	// maxPayloadRecord bounds a single record, and a stream frame carrying
	// one, so a corrupt length cannot force a huge allocation.
	maxPayloadRecord = 64 << 20
	// Record kinds: a stored payload and a deletion tombstone.
	recPut = 0
	recDel = 1
	// maxCoalescedSpan caps how many bytes of physically adjacent records a
	// batched read merges into one ReadAt, bounding the shared buffer a
	// single slow consumer can pin.
	maxCoalescedSpan = 4 << 20
)

// indexFileName is the optional index checkpoint a clean Close writes so
// the next Open can skip the full segment scan.
const indexFileName = "index.idx"

// indexMagic introduces the index checkpoint file.
const indexMagic = "SCPI"

// Options configure a segment store.
type Options struct {
	// SegmentMaxBytes rotates the active segment once it grows past this
	// size. Zero means the 64 MiB default.
	SegmentMaxBytes int64
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.SegmentMaxBytes <= 0 {
		o.SegmentMaxBytes = 64 << 20
	}
	return o
}

// entry locates one live block payload inside a segment.
type entry struct {
	seg uint64 // segment sequence
	off int64  // offset of the record frame (length word)
	n   int32  // payload length, including the kind byte and block ID
}

// segment is one on-disk segment file.
type segment struct {
	seq  uint64
	path string
	f    *os.File
	size int64 // bytes written, header included
	live int   // live (referenced) records
	dead int64 // frame bytes belonging to dead records and tombstones

	// pins counts reads in flight outside the store mutex. A pruned
	// segment with pins outstanding is marked doomed instead of closed:
	// the file is unlinked immediately but the descriptor stays open until
	// the last reader unpins, so compaction can never yank a file out from
	// under a concurrent read.
	pins   int
	doomed bool
}

// Store is one disk's payload store: an append-only set of CRC-framed
// segment files plus an in-memory index from block ID to record location.
// All methods are safe for concurrent use, though the CM server drives each
// store from its single owner goroutine.
type Store struct {
	dir  string
	opts Options

	mu        sync.Mutex
	segs      []*segment // ascending seq; the last one is the active segment
	bySeq     map[uint64]*segment
	index     map[disk.BlockID]entry
	nextSeq   uint64
	liveBytes int64
	closed    bool

	// readFault, when set, is consulted before every real segment read —
	// the hook the fault injector uses to make transient read errors fire
	// on actual file I/O (not just the simulated access accounting).
	readFault func(disk.BlockID) error

	// scratch is the append buffer, reused across Puts.
	scratch []byte
}

// OpenStore opens (or creates) the segment store rooted at dir and recovers
// its index: from the index checkpoint plus segment tails when the
// checkpoint is valid, or by a full scan of every segment otherwise. A
// checkpoint that references a pruned or shorter-than-recorded segment is
// discarded and the store falls back to the full scan. Torn or corrupt
// record suffixes are truncated — the store trusts the longest valid prefix
// of each segment, like the metadata journal.
func OpenStore(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dataplane: create store dir: %w", err)
	}
	s := &Store{
		dir:   dir,
		opts:  opts.withDefaults(),
		bySeq: make(map[uint64]*segment),
		index: make(map[disk.BlockID]entry),
	}
	if err := s.load(); err != nil {
		s.closeFiles()
		return nil, err
	}
	return s, nil
}

// segPath names a segment file by sequence.
func (s *Store) segPath(seq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("seg-%016x.blk", seq))
}

// load discovers segment files, recovers the index, and ensures an active
// segment exists.
func (s *Store) load() error {
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("dataplane: read store dir: %w", err)
	}
	var seqs []uint64
	for _, de := range names {
		name := de.Name()
		if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".blk") {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".blk"), 16, 64)
		if err != nil {
			continue // not ours; leave it alone
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		f, err := os.OpenFile(s.segPath(seq), os.O_RDWR, 0o644)
		if err != nil {
			return fmt.Errorf("dataplane: open segment: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return fmt.Errorf("dataplane: stat segment: %w", err)
		}
		seg := &segment{seq: seq, path: s.segPath(seq), f: f, size: st.Size()}
		s.segs = append(s.segs, seg)
		s.bySeq[seq] = seg
		if seq >= s.nextSeq {
			s.nextSeq = seq + 1
		}
	}
	covered, ok := s.loadIndexCheckpoint()
	if !ok {
		// Full scan: replay every segment in sequence order so later puts
		// and tombstones override earlier records.
		s.index = make(map[disk.BlockID]entry)
		covered = make(map[uint64]int64, len(s.segs))
	}
	for _, seg := range s.segs {
		from := covered[seg.seq]
		if from < int64(segHeaderLen) {
			from = 0 // scan from the start, validating the header
		}
		if err := s.scanSegment(seg, from); err != nil {
			return err
		}
	}
	s.recountLive()
	// The checkpoint is consumed; a stale copy must not shadow appends made
	// after this open if the process dies without a clean Close.
	os.Remove(filepath.Join(s.dir, indexFileName))
	if len(s.segs) == 0 {
		if err := s.newSegment(); err != nil {
			return err
		}
	}
	return nil
}

// scanSegment replays one segment's records into the index starting at
// offset from (0 means the whole file, header included). The first torn or
// corrupt record truncates the file — everything before it is trusted,
// everything after is discarded.
func (s *Store) scanSegment(seg *segment, from int64) error {
	data := make([]byte, seg.size-from)
	if n, err := seg.f.ReadAt(data, from); err != nil && !(errors.Is(err, io.EOF) && n == len(data)) {
		return fmt.Errorf("dataplane: read segment %s: %w", seg.path, err)
	}
	off := int64(0)
	if from == 0 {
		if len(data) < segHeaderLen || string(data[:4]) != segMagic ||
			data[4] != segVersion || binary.LittleEndian.Uint64(data[5:13]) != seg.seq {
			// A header too corrupt to trust: drop the whole segment's
			// records by truncating to an empty header rewrite.
			return s.truncateSegment(seg, from, 0)
		}
		off = int64(segHeaderLen)
	}
	for {
		payload, size, err := frame.Next(data[off:], maxPayloadRecord)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return s.truncateSegment(seg, from, off)
		}
		kind, bid, _, ok := decodeRecord(payload)
		if !ok {
			return s.truncateSegment(seg, from, off)
		}
		switch kind {
		case recPut:
			s.index[bid] = entry{seg: seg.seq, off: from + off, n: int32(len(payload))}
		case recDel:
			delete(s.index, bid)
		}
		off += int64(size)
	}
}

// truncateSegment discards a torn or corrupt suffix, keeping the longest
// valid prefix.
func (s *Store) truncateSegment(seg *segment, from, off int64) error {
	keep := from + off
	if err := seg.f.Truncate(keep); err != nil {
		return fmt.Errorf("dataplane: truncate torn segment %s: %w", seg.path, err)
	}
	seg.size = keep
	// Index entries pointing past the truncation point are impossible:
	// the scan processes records in offset order and had not indexed the
	// discarded suffix yet.
	return nil
}

// recountLive recomputes per-segment live counts, dead bytes, and the
// store-wide live byte total from the recovered index.
func (s *Store) recountLive() {
	liveFrames := make(map[uint64]int64, len(s.segs))
	s.liveBytes = 0
	for _, seg := range s.segs {
		seg.live, seg.dead = 0, 0
	}
	for bid, e := range s.index {
		if seg := s.bySeq[e.seg]; seg != nil {
			seg.live++
			liveFrames[e.seg] += frame.HeaderLen + int64(e.n)
		}
		s.liveBytes += dataLen(e, bid)
	}
	for _, seg := range s.segs {
		payload := seg.size - int64(segHeaderLen)
		if seg.size < int64(segHeaderLen) {
			payload = 0
		}
		seg.dead = payload - liveFrames[seg.seq]
	}
}

// newSegment creates and activates a fresh segment.
func (s *Store) newSegment() error {
	seq := s.nextSeq
	s.nextSeq++
	f, err := os.OpenFile(s.segPath(seq), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("dataplane: create segment: %w", err)
	}
	hdr := make([]byte, segHeaderLen)
	copy(hdr, segMagic)
	hdr[4] = segVersion
	binary.LittleEndian.PutUint64(hdr[5:], seq)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("dataplane: write segment header: %w", err)
	}
	seg := &segment{seq: seq, path: s.segPath(seq), f: f, size: int64(segHeaderLen)}
	s.segs = append(s.segs, seg)
	s.bySeq[seq] = seg
	return nil
}

// active returns the segment currently receiving appends.
func (s *Store) active() *segment { return s.segs[len(s.segs)-1] }

// dataLen returns the block-data byte count of a put record's entry: the
// record payload minus the kind byte and the block-ID varint.
func dataLen(e entry, bid disk.BlockID) int64 {
	n := int64(e.n) - 1
	v := uint64(bid)
	for {
		n--
		if v < 0x80 {
			return n
		}
		v >>= 7
	}
}

// decodeRecord splits a record payload into kind, block ID, and data.
func decodeRecord(payload []byte) (kind int, bid disk.BlockID, data []byte, ok bool) {
	c := frame.Cursor{Buf: payload}
	kind, bid, data = int(c.U8("kind")), disk.BlockID(c.Uvarint("block ID")), c.Rest()
	return kind, bid, data, c.OK() && (kind == recPut || kind == recDel)
}

// appendRecord frames and appends one record to the active segment,
// rotating first if the segment is full. Returns the record's location.
func (s *Store) appendRecord(kind int, bid disk.BlockID, data []byte) (entry, error) {
	s.scratch = append(frame.Begin(s.scratch[:0]), byte(kind))
	s.scratch = binary.AppendUvarint(s.scratch, uint64(bid))
	if n := len(s.scratch) - frame.HeaderLen + len(data); n > maxPayloadRecord {
		// The recovery scan and every read distrust a record over the
		// bound: storing this one would lose it, and truncate the segment
		// there, at the next open.
		return entry{}, fmt.Errorf("dataplane: block %d needs a %d-byte record, over the %d-byte bound", bid, n, maxPayloadRecord)
	}
	seg := s.active()
	if seg.size >= s.opts.SegmentMaxBytes && seg.size > int64(segHeaderLen) {
		if err := s.newSegment(); err != nil {
			return entry{}, err
		}
		seg = s.active()
	}
	s.scratch = frame.Finish(append(s.scratch, data...), 0)
	if _, err := seg.f.WriteAt(s.scratch, seg.size); err != nil {
		return entry{}, fmt.Errorf("dataplane: append to %s: %w", seg.path, err)
	}
	e := entry{seg: seg.seq, off: seg.size, n: int32(len(s.scratch) - frame.HeaderLen)}
	seg.size += int64(len(s.scratch))
	return e, nil
}

// Put stores a block payload, replacing any previous payload for the same
// block (the old record becomes dead bytes).
func (s *Store) Put(bid disk.BlockID, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrStoreClosed
	}
	e, err := s.appendRecord(recPut, bid, data)
	if err != nil {
		return err
	}
	if old, ok := s.index[bid]; ok {
		s.liveBytes -= dataLen(old, bid)
		s.retireLocked(old)
	}
	s.index[bid] = e
	if seg := s.bySeq[e.seg]; seg != nil {
		seg.live++
	}
	s.liveBytes += int64(len(data))
	return nil
}

// pinLocked resolves a block to its record location and pins the segment
// so the file survives until unpinLocked, letting the caller perform the
// read outside the store mutex. The injected read fault, if any, fires
// here — before the file I/O, like a media error would.
func (s *Store) pinLocked(bid disk.BlockID) (entry, *segment, error) {
	if fault := s.readFault; fault != nil {
		if err := fault(bid); err != nil {
			return entry{}, nil, err
		}
	}
	e, ok := s.index[bid]
	if !ok {
		return entry{}, nil, fmt.Errorf("%w: block %d", ErrPayloadNotFound, bid)
	}
	seg := s.bySeq[e.seg]
	if seg == nil {
		return entry{}, nil, fmt.Errorf("%w: block %d indexed into missing segment %d", ErrCorruptPayload, bid, e.seg)
	}
	seg.pins++
	return e, seg, nil
}

// unpinLocked drops one read pin; the last unpin of a doomed segment
// closes the (already unlinked) file.
func (s *Store) unpinLocked(seg *segment) {
	seg.pins--
	if seg.pins == 0 && seg.doomed && seg.f != nil {
		seg.f.Close()
		seg.f = nil
	}
}

// verifyRecord checks a framed record read back from a segment and returns
// the block data inside it.
func verifyRecord(rec []byte, bid disk.BlockID) ([]byte, error) {
	payload, size, err := frame.Next(rec, maxPayloadRecord)
	if err != nil || size != len(rec) {
		return nil, fmt.Errorf("%w: block %d frame check failed", ErrCorruptPayload, bid)
	}
	kind, got, data, ok := decodeRecord(payload)
	if !ok || kind != recPut || got != bid {
		return nil, fmt.Errorf("%w: block %d record mismatch", ErrCorruptPayload, bid)
	}
	return data, nil
}

// Get reads a block payload, verifying its CRC frame. The store mutex is
// held only for the index lookup and segment pin — the file I/O and CRC
// verification run outside it, so slow media never serializes writers,
// compaction, or other readers behind this read.
func (s *Store) Get(bid disk.BlockID) ([]byte, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrStoreClosed
	}
	e, seg, err := s.pinLocked(bid)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	s.mu.Unlock()

	buf := make([]byte, frame.HeaderLen+int(e.n))
	_, rerr := seg.f.ReadAt(buf, e.off)

	s.mu.Lock()
	s.unpinLocked(seg)
	s.mu.Unlock()

	if rerr != nil {
		return nil, fmt.Errorf("dataplane: read %s: %w", seg.path, rerr)
	}
	return verifyRecord(buf, bid)
}

// pendingRead carries one batch slot from the locked planning pass to the
// unlocked I/O pass.
type pendingRead struct {
	idx int // position in the caller's request slice
	e   entry
	seg *segment
}

// batchScratchPool recycles the planning slice across ReadBlocks calls so
// the steady-state round pipeline performs no per-batch allocation.
var batchScratchPool = sync.Pool{New: func() any { return new([]pendingRead) }}

// ReadBlocks resolves a batch of payload reads in one pass: under the
// store mutex it consults the fault hook, looks up and pins every
// requested record, then outside the lock it sorts the records by
// (segment, offset), coalesces physically adjacent frames into single
// ReadAt calls, and verifies each record's CRC frame individually.
// Coalesced neighbours share one pooled buffer — one reference per
// successful slot — and a corrupt or faulted record fails only its own
// slot, never the rest of the span.
func (s *Store) ReadBlocks(reqs []disk.BlockRead) {
	scratch := batchScratchPool.Get().(*[]pendingRead)
	pend := (*scratch)[:0]

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		for i := range reqs {
			reqs[i].Payload, reqs[i].Err = bufpool.Payload{}, ErrStoreClosed
		}
		*scratch = pend
		batchScratchPool.Put(scratch)
		return
	}
	for i := range reqs {
		reqs[i].Payload = bufpool.Payload{}
		e, seg, err := s.pinLocked(reqs[i].Block)
		if err != nil {
			reqs[i].Err = err
			continue
		}
		reqs[i].Err = nil
		pend = append(pend, pendingRead{idx: i, e: e, seg: seg})
	}
	s.mu.Unlock()

	slices.SortFunc(pend, func(a, b pendingRead) int {
		if a.seg.seq != b.seg.seq {
			if a.seg.seq < b.seg.seq {
				return -1
			}
			return 1
		}
		switch {
		case a.e.off < b.e.off:
			return -1
		case a.e.off > b.e.off:
			return 1
		default:
			return 0
		}
	})

	for i := 0; i < len(pend); {
		seg := pend[i].seg
		spanStart := pend[i].e.off
		spanEnd := spanStart + frame.HeaderLen + int64(pend[i].e.n)
		j := i + 1
		for j < len(pend) && pend[j].seg == seg {
			off := pend[j].e.off
			end := off + frame.HeaderLen + int64(pend[j].e.n)
			// Records never overlap, so a follower either duplicates a
			// frame already inside the span or starts exactly at its end.
			if off > spanEnd || (end > spanEnd && spanEnd-spanStart >= maxCoalescedSpan) {
				break
			}
			if end > spanEnd {
				spanEnd = end
			}
			j++
		}
		buf := bufpool.Get(int(spanEnd - spanStart))
		data := buf.Data()
		if _, err := seg.f.ReadAt(data, spanStart); err != nil {
			for k := i; k < j; k++ {
				reqs[pend[k].idx].Err = fmt.Errorf("dataplane: read %s: %w", seg.path, err)
			}
		} else {
			for k := i; k < j; k++ {
				p := pend[k]
				r := &reqs[p.idx]
				rec := data[p.e.off-spanStart : p.e.off-spanStart+frame.HeaderLen+int64(p.e.n)]
				blockData, verr := verifyRecord(rec, r.Block)
				if verr != nil {
					r.Err = verr
					continue
				}
				buf.Retain()
				r.Payload = bufpool.Payload{Data: blockData, Buf: buf}
			}
		}
		buf.Release() // drop the planning reference; live refs = successful slots
		i = j
	}

	s.mu.Lock()
	for i := range pend {
		s.unpinLocked(pend[i].seg)
	}
	s.mu.Unlock()

	*scratch = pend
	batchScratchPool.Put(scratch)
}

// Delete removes a block payload by appending a tombstone. Deleting an
// absent block is a no-op.
func (s *Store) Delete(bid disk.BlockID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrStoreClosed
	}
	e, ok := s.index[bid]
	if !ok {
		return nil
	}
	te, err := s.appendRecord(recDel, bid, nil)
	if err != nil {
		return err
	}
	delete(s.index, bid)
	s.retireLocked(e)
	s.liveBytes -= dataLen(e, bid)
	// The tombstone itself is immediately dead weight.
	if seg := s.bySeq[te.seg]; seg != nil {
		seg.dead += frame.HeaderLen + int64(te.n)
	}
	return nil
}

// retireLocked marks a record dead and prunes its segment if nothing live
// remains in a sealed segment.
func (s *Store) retireLocked(e entry) {
	seg := s.bySeq[e.seg]
	if seg == nil {
		return
	}
	seg.live--
	seg.dead += frame.HeaderLen + int64(e.n)
	if seg.live == 0 && seg != s.active() {
		s.pruneLocked(seg)
	}
}

// pruneLocked deletes a fully-dead sealed segment. The file is unlinked
// immediately, but if readers still hold pins the descriptor stays open
// (doomed) until the last unpin — in-flight reads finish against the
// unlinked inode instead of racing the close.
func (s *Store) pruneLocked(dead *segment) {
	os.Remove(dead.path)
	delete(s.bySeq, dead.seq)
	for i, seg := range s.segs {
		if seg == dead {
			s.segs = append(s.segs[:i], s.segs[i+1:]...)
			break
		}
	}
	dead.doomed = true
	if dead.pins == 0 {
		dead.f.Close()
		dead.f = nil
	}
}

// Has reports whether the store holds a payload for the block.
func (s *Store) Has(bid disk.BlockID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[bid]
	return ok
}

// Blocks returns the IDs of all stored payloads in unspecified order.
func (s *Store) Blocks() []disk.BlockID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]disk.BlockID, 0, len(s.index))
	for bid := range s.index {
		out = append(out, bid)
	}
	return out
}

// Len returns the number of stored payloads.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// LiveBytes returns the total payload bytes currently referenced by the
// index (excluding framing and dead records).
func (s *Store) LiveBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.liveBytes
}

// SetReadFault installs (or clears, with nil) the injected read-fault hook
// consulted, per block, before every Get's or ReadBlocks' file I/O.
func (s *Store) SetReadFault(f func(disk.BlockID) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.readFault = f
}

// Compact rewrites every sealed segment that carries dead bytes, copying
// its live records into the active segment and deleting the old file. The
// store stays readable throughout; only the index entries of moved records
// change.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrStoreClosed
	}
	// Collect candidates first: rewriting appends to the active segment,
	// which can rotate and grow s.segs under us.
	var victims []*segment
	for _, seg := range s.segs[:len(s.segs)-1] {
		if seg.dead > 0 {
			victims = append(victims, seg)
		}
	}
	for _, seg := range victims {
		var moved []disk.BlockID
		for bid, e := range s.index {
			if e.seg == seg.seq {
				moved = append(moved, bid)
			}
		}
		sort.Slice(moved, func(i, j int) bool { return moved[i] < moved[j] })
		for _, bid := range moved {
			e := s.index[bid]
			buf := make([]byte, frame.HeaderLen+int(e.n))
			if _, err := seg.f.ReadAt(buf, e.off); err != nil {
				return fmt.Errorf("dataplane: compact read %s: %w", seg.path, err)
			}
			data, err := verifyRecord(buf, bid)
			if err != nil {
				return fmt.Errorf("dataplane: compact %s: %w", seg.path, err)
			}
			ne, err := s.appendRecord(recPut, bid, data)
			if err != nil {
				return err
			}
			s.index[bid] = ne
			if nseg := s.bySeq[ne.seg]; nseg != nil {
				nseg.live++
			}
			seg.live--
		}
		s.pruneLocked(seg)
	}
	return nil
}

// Checkpoint writes the index checkpoint file so the next Open can recover
// without a full scan. It records, per segment, how many bytes the
// checkpoint covers; appends after the checkpoint are recovered by scanning
// each segment's tail.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrStoreClosed
	}
	return s.writeIndexCheckpointLocked()
}

// writeIndexCheckpointLocked serializes the index. Format: magic, version,
// segment table (seq, covered size), entry table (block ID, seq, offset,
// payload length), all uvarint past the fixed header.
func (s *Store) writeIndexCheckpointLocked() error {
	buf := make([]byte, 0, 64+len(s.index)*12)
	buf = append(buf, indexMagic...)
	buf = append(buf, segVersion)
	buf = binary.AppendUvarint(buf, uint64(len(s.segs)))
	for _, seg := range s.segs {
		buf = binary.AppendUvarint(buf, seg.seq)
		buf = binary.AppendUvarint(buf, uint64(seg.size))
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.index)))
	for bid, e := range s.index {
		buf = binary.AppendUvarint(buf, uint64(bid))
		buf = binary.AppendUvarint(buf, e.seg)
		buf = binary.AppendUvarint(buf, uint64(e.off))
		buf = binary.AppendUvarint(buf, uint64(e.n))
	}
	sum := frame.Checksum(buf)
	buf = binary.LittleEndian.AppendUint32(buf, sum)
	tmp := filepath.Join(s.dir, indexFileName+".tmp")
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return fmt.Errorf("dataplane: write index checkpoint: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, indexFileName)); err != nil {
		return fmt.Errorf("dataplane: install index checkpoint: %w", err)
	}
	return nil
}

// loadIndexCheckpoint tries to recover the index from the checkpoint file.
// It returns the per-segment covered sizes and true on success. Any
// structural problem — bad CRC, a referenced segment that was pruned, or a
// segment shorter than the covered size — discards the checkpoint so Open
// falls back to the full scan.
func (s *Store) loadIndexCheckpoint() (map[uint64]int64, bool) {
	path := filepath.Join(s.dir, indexFileName)
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	if len(buf) < len(indexMagic)+1+4 || string(buf[:4]) != indexMagic || buf[4] != segVersion {
		return nil, false
	}
	body, tail := buf[:len(buf)-4], buf[len(buf)-4:]
	if frame.Checksum(body) != binary.LittleEndian.Uint32(tail) {
		return nil, false
	}
	// Count holds both table lengths to what the file could hold (two and
	// four uvarints a row) before a map is sized by them; Int64 / Int hold every
	// offset and length to what the entry's fields can carry.
	c := frame.Cursor{Buf: body[5:]}
	nSegs := c.Count(2, "segment count")
	covered := make(map[uint64]int64, nSegs)
	for ; nSegs > 0; nSegs-- {
		seq, size := c.Uvarint("segment sequence"), c.Int64("covered size")
		if seg := s.bySeq[seq]; seg == nil || seg.size < size {
			// The checkpoint references a pruned (or truncated) segment:
			// it no longer describes reality. Full rescan.
			return nil, false
		}
		covered[seq] = size
	}
	nEntries := c.Count(4, "entry count")
	idx := make(map[disk.BlockID]entry, nEntries)
	for ; nEntries > 0; nEntries-- {
		bid := disk.BlockID(c.Uvarint("block ID"))
		e := entry{seg: c.Uvarint("segment sequence"), off: c.Int64("record offset")}
		n := c.Int("payload length")
		if size, exists := covered[e.seg]; !exists || n > maxPayloadRecord || e.off+frame.HeaderLen+int64(n) > size {
			return nil, false // a record outside the bytes the checkpoint covers
		}
		e.n = int32(n)
		idx[bid] = e
	}
	if c.Done("index checkpoint") != nil {
		return nil, false
	}
	s.index = idx
	return covered, true
}

// Wipe discards every payload and segment file, leaving an empty store —
// the data-loss half of a whole-disk failure.
func (s *Store) Wipe() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrStoreClosed
	}
	for _, seg := range s.segs {
		os.Remove(seg.path)
		seg.doomed = true
		if seg.pins == 0 {
			seg.f.Close()
			seg.f = nil
		}
	}
	os.Remove(filepath.Join(s.dir, indexFileName))
	s.segs = nil
	s.bySeq = make(map[uint64]*segment)
	s.index = make(map[disk.BlockID]entry)
	s.liveBytes = 0
	return s.newSegment()
}

// Destroy wipes the store and removes its directory — the disk left the
// array for good.
func (s *Store) Destroy() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closeFilesLocked()
	s.closed = true
	return os.RemoveAll(s.dir)
}

// Close checkpoints the index and closes every segment file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.writeIndexCheckpointLocked()
	s.closeFilesLocked()
	s.closed = true
	return err
}

// closeFiles closes segment files without taking the lock (load-error path).
func (s *Store) closeFiles() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closeFilesLocked()
}

// closeFilesLocked closes every open segment file.
func (s *Store) closeFilesLocked() {
	for _, seg := range s.segs {
		if seg.f != nil {
			seg.f.Close()
		}
	}
}
