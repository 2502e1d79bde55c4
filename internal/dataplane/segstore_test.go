package dataplane

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"scaddar/internal/disk"
	"scaddar/internal/frame"
)

// put stores the oracle payload for (seed, index) under bid.
func put(t *testing.T, s *Store, bid disk.BlockID, seed, index uint64, n int64) {
	t.Helper()
	if err := s.Put(bid, SeededContent(seed, index, n)); err != nil {
		t.Fatalf("Put(%d): %v", bid, err)
	}
}

// wantOracle reads bid and checks it against the oracle.
func wantOracle(t *testing.T, s *Store, bid disk.BlockID, seed, index uint64, n int64) {
	t.Helper()
	data, err := s.Get(bid)
	if err != nil {
		t.Fatalf("Get(%d): %v", bid, err)
	}
	if int64(len(data)) != n || !VerifySeededContent(data, seed, index) {
		t.Fatalf("Get(%d): payload does not match oracle", bid)
	}
}

func TestStorePutGetDeleteRoundTrip(t *testing.T) {
	s, err := OpenStore(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 100; i++ {
		put(t, s, disk.BlockID(i), 7, uint64(i), 512)
	}
	if s.Len() != 100 {
		t.Fatalf("Len = %d, want 100", s.Len())
	}
	for i := 0; i < 100; i++ {
		wantOracle(t, s, disk.BlockID(i), 7, uint64(i), 512)
	}
	if err := s.Delete(3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(3); !errors.Is(err, ErrPayloadNotFound) {
		t.Fatalf("Get after delete: %v, want ErrPayloadNotFound", err)
	}
	// Overwrite replaces the payload.
	put(t, s, 5, 99, 5, 256)
	wantOracle(t, s, 5, 99, 5, 256)
	if got := s.LiveBytes(); got != 98*512+256 {
		t.Fatalf("LiveBytes = %d, want %d", got, 98*512+256)
	}
}

func TestStoreRecoveryFullScan(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, Options{SegmentMaxBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		put(t, s, disk.BlockID(i), 1, uint64(i), 300)
	}
	s.Delete(10)
	put(t, s, 20, 2, 20, 300) // overwrite in a later segment
	// Crash: no Close, no checkpoint.
	s.closeFiles()
	r, err := OpenStore(dir, Options{SegmentMaxBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 49 {
		t.Fatalf("recovered Len = %d, want 49", r.Len())
	}
	if _, err := r.Get(10); !errors.Is(err, ErrPayloadNotFound) {
		t.Fatalf("deleted block resurfaced: %v", err)
	}
	wantOracle(t, r, 20, 2, 20, 300)
	wantOracle(t, r, 49, 1, 49, 300)
}

func TestStoreRecoveryFromCheckpointPlusTail(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		put(t, s, disk.BlockID(i), 3, uint64(i), 128)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Appends after the checkpoint land in the tail the next open scans.
	for i := 20; i < 30; i++ {
		put(t, s, disk.BlockID(i), 3, uint64(i), 128)
	}
	s.Delete(0)
	s.closeFiles()
	r, err := OpenStore(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 29 {
		t.Fatalf("recovered Len = %d, want 29", r.Len())
	}
	if _, err := r.Get(0); !errors.Is(err, ErrPayloadNotFound) {
		t.Fatalf("post-checkpoint tombstone lost: %v", err)
	}
	wantOracle(t, r, 25, 3, 25, 128)
}

// TestStoreTornFinalRecord is the first crash edge: a payload append torn
// mid-record must be truncated on recovery — the longest valid prefix
// survives, the torn block is simply absent.
func TestStoreTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		put(t, s, disk.BlockID(i), 4, uint64(i), 200)
	}
	seg := s.active()
	full := seg.size
	s.closeFiles()
	// Tear the last record: chop 37 bytes off the file.
	if err := os.Truncate(seg.path, full-37); err != nil {
		t.Fatal(err)
	}
	r, err := OpenStore(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 9 {
		t.Fatalf("recovered Len = %d, want 9 (torn final record dropped)", r.Len())
	}
	if _, err := r.Get(9); !errors.Is(err, ErrPayloadNotFound) {
		t.Fatalf("torn block 9 resurfaced: %v", err)
	}
	for i := 0; i < 9; i++ {
		wantOracle(t, r, disk.BlockID(i), 4, uint64(i), 200)
	}
	// A corrupted (bit-flipped) final record must equally be dropped.
	s2 := r
	put(t, s2, 100, 8, 100, 200)
	seg2 := s2.active()
	recOff := seg2.size - 50 // inside the last record's payload
	s2.closeFiles()
	f, err := os.OpenFile(seg2.path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, recOff); err != nil {
		t.Fatal(err)
	}
	f.Close()
	r2, err := OpenStore(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if _, err := r2.Get(100); !errors.Is(err, ErrPayloadNotFound) {
		t.Fatalf("corrupt block 100 resurfaced: %v", err)
	}
}

// TestStoreCheckpointReferencingPrunedSegment is the second crash edge: an
// index checkpoint that references a segment file which was pruned after
// the checkpoint was written must be discarded, falling back to a full
// rescan of the surviving segments.
func TestStoreCheckpointReferencingPrunedSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, Options{SegmentMaxBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		put(t, s, disk.BlockID(i), 5, uint64(i), 400)
	}
	if len(s.segs) < 3 {
		t.Fatalf("want ≥3 segments, got %d", len(s.segs))
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	victim := s.segs[0]
	s.closeFiles()
	// Prune the first segment out from under the checkpoint.
	if err := os.Remove(victim.path); err != nil {
		t.Fatal(err)
	}
	r, err := OpenStore(dir, Options{SegmentMaxBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// The checkpoint indexed all 40 blocks; the fallback full rescan must
	// surface exactly the blocks whose segments survived — and every
	// surviving payload must still verify.
	if r.Len() >= 40 || r.Len() == 0 {
		t.Fatalf("recovered Len = %d, want fewer than 40 and more than 0", r.Len())
	}
	for _, bid := range r.Blocks() {
		wantOracle(t, r, bid, 5, uint64(bid), 400)
	}
	// Nothing may point into the pruned segment.
	if _, err := os.Stat(victim.path); !os.IsNotExist(err) {
		t.Fatalf("victim segment still present: %v", err)
	}
}

func TestStoreWipeAndReuse(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	put(t, s, 1, 6, 1, 100)
	if err := s.Wipe(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 || s.LiveBytes() != 0 {
		t.Fatalf("wiped store not empty: len=%d bytes=%d", s.Len(), s.LiveBytes())
	}
	put(t, s, 2, 6, 2, 100)
	wantOracle(t, s, 2, 6, 2, 100)
}

func TestStorePrunesFullyDeadSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, Options{SegmentMaxBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 30; i++ {
		put(t, s, disk.BlockID(i), 7, uint64(i), 200)
	}
	before := len(s.segs)
	for i := 0; i < 30; i++ {
		if err := s.Delete(disk.BlockID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.segs) >= before {
		t.Fatalf("no segments pruned: %d before, %d after full drain", before, len(s.segs))
	}
	files, _ := filepath.Glob(filepath.Join(dir, "seg-*.blk"))
	if len(files) != len(s.segs) {
		t.Fatalf("on-disk segments %d != tracked %d", len(files), len(s.segs))
	}
}

func TestStoreCompact(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, Options{SegmentMaxBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		put(t, s, disk.BlockID(i), 9, uint64(i), 300)
	}
	// Kill every other block so sealed segments carry dead weight.
	for i := 0; i < 40; i += 2 {
		if err := s.Delete(disk.BlockID(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := len(s.segs)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if len(s.segs) >= before {
		t.Fatalf("compaction did not shrink segments: %d → %d", before, len(s.segs))
	}
	for i := 1; i < 40; i += 2 {
		wantOracle(t, s, disk.BlockID(i), 9, uint64(i), 300)
	}
	// Survives recovery.
	s.closeFiles()
	r, err := OpenStore(dir, Options{SegmentMaxBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 20 {
		t.Fatalf("post-compact recovery Len = %d, want 20", r.Len())
	}
}

func TestStoreInjectedReadFault(t *testing.T) {
	s, err := OpenStore(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	put(t, s, 1, 11, 1, 64)
	boom := fmt.Errorf("injected transient fault")
	hits := 0
	s.SetReadFault(func(b disk.BlockID) error {
		hits++
		if hits == 1 {
			return boom
		}
		return nil
	})
	if _, err := s.Get(1); !errors.Is(err, boom) {
		t.Fatalf("first Get = %v, want injected fault", err)
	}
	wantOracle(t, s, 1, 11, 1, 64)
}

func TestManagerRetainDestroysStaleDirs(t *testing.T) {
	root := t.TempDir()
	m, err := NewManager(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, id := range []int{0, 1, 2, 7} {
		st, err := m.Open(id)
		if err != nil {
			t.Fatal(err)
		}
		put(t, st, disk.BlockID(id), 1, uint64(id), 32)
	}
	if err := m.Retain([]int{0, 2}); err != nil {
		t.Fatal(err)
	}
	ids, err := m.DiskIDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 2 {
		t.Fatalf("retained dirs = %v, want [0 2]", ids)
	}
	if m.Store(1) != nil || m.Store(7) != nil {
		t.Fatal("destroyed stores still registered")
	}
}

// TestStoreForgedIndexCheckpointIsDiscarded: an index checkpoint whose
// checksum holds but whose numbers cannot be true — an offset or a length
// that does not survive the narrowing to the entry's fields, a record outside
// the bytes the checkpoint covers, a table length the file could not hold —
// is discarded like any other structural problem, and Open falls back to the
// scan. (The parent narrowed offset and length unchecked, so the first two
// loaded as a negative offset and a negative length, and a Get of the block
// failed or panicked; it sized both maps straight from the declared counts.)
func TestStoreForgedIndexCheckpointIsDiscarded(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	put(t, s, 9, 3, 9, 128)
	seq, size := s.active().seq, uint64(s.active().size)
	e := s.index[9]
	s.closeFiles()

	u := binary.AppendUvarint
	index := func(nSegs, nEntries, off, n uint64) []byte {
		b := u(u(u(append([]byte(indexMagic), segVersion), nSegs), seq), size)
		b = u(u(u(u(u(b, nEntries), 9), seq), off), n)
		return binary.LittleEndian.AppendUint32(b, frame.Checksum(b))
	}
	for name, idx := range map[string][]byte{
		"offset of 1<<63":                index(1, 1, 1<<63, uint64(e.n)),
		"length of 1<<31 + the real one": index(1, 1, uint64(e.off), 1<<31+uint64(e.n)),
		"record past the covered bytes":  index(1, 1, size-4, uint64(e.n)),
		"entry count of 1<<40":           index(1, 1<<40, uint64(e.off), uint64(e.n)),
		"segment count of 1<<40":         index(1<<40, 1, uint64(e.off), uint64(e.n)),
	} {
		if err := os.WriteFile(filepath.Join(dir, indexFileName), idx, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenStore(dir, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Len() != 1 {
			t.Fatalf("%s: recovered Len = %d, want 1", name, r.Len())
		}
		wantOracle(t, r, 9, 3, 9, 128)
		r.closeFiles()
	}
	// The honest checkpoint, same builder, is taken: the scan is skipped.
	if err := os.WriteFile(filepath.Join(dir, indexFileName), index(1, 1, uint64(e.off), uint64(e.n)), 0o644); err != nil {
		t.Fatal(err)
	}
	r := &Store{dir: dir, bySeq: map[uint64]*segment{seq: {seq: seq, size: int64(size)}}}
	if _, ok := r.loadIndexCheckpoint(); !ok || r.index[9] != e {
		t.Fatalf("honest checkpoint refused (ok %v) or misread: %+v, want %+v", ok, r.index[9], e)
	}
}

// TestPutRejectsOversizeRecord: the store must not accept a record its own
// recovery scan and reads refuse. A payload that would need a record over
// maxPayloadRecord fails the Put before a byte is written; the store and
// what it held stay usable.
// (Unchecked, the record was appended and acknowledged, and the next open
// truncated the segment at it — taking every later record along.)
func TestPutRejectsOversizeRecord(t *testing.T) {
	s, err := OpenStore(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	put(t, s, 1, 6, 1, 100)
	size := s.active().size
	huge := make([]byte, maxPayloadRecord) // never touched: refused before it is copied
	if err := s.Put(2, huge); err == nil {
		t.Fatal("a record over the bound was accepted")
	}
	if s.Len() != 1 || s.active().size != size {
		t.Fatalf("rejected Put changed the store: %d blocks, segment %d → %d bytes", s.Len(), size, s.active().size)
	}
	wantOracle(t, s, 1, 6, 1, 100)
}
