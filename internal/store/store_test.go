package store

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"scaddar/internal/cm"
	"scaddar/internal/frame"
	"scaddar/internal/placement"
	"scaddar/internal/prng"
	"scaddar/internal/workload"
)

// Helpers shared by the store tests: a deterministic server factory (same
// generator family as the cm tests) and a locator-state capture used to
// assert block-for-block agreement between a survivor and a recovered
// server.

func testFactory(seed uint64) prng.Source { return prng.NewSplitMix64(seed) }

func testX0() placement.X0Func { return placement.NewX0Func(testFactory) }

// testConfig shortens the round so migrations and rebuilds take several
// ticks — the regime crash recovery has to get right.
func testConfig() cm.Config {
	cfg := cm.DefaultConfig()
	cfg.Round = 100 * time.Millisecond
	return cfg
}

func newTestServer(t testing.TB, cfg cm.Config, n0 int) *cm.Server {
	t.Helper()
	strat, err := placement.NewScaddar(n0, testX0())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := cm.NewServer(cfg, strat)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func testObject(id, blocks int) workload.Object {
	return workload.Object{
		ID:                id,
		Seed:              uint64(id)*1000 + 7,
		Blocks:            blocks,
		BlockBytes:        256 << 10,
		BitrateBitsPerSec: 4 << 20,
	}
}

func loadObjects(t *testing.T, srv *cm.Server, n, blocks int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := srv.AddObject(testObject(i, blocks)); err != nil {
			t.Fatal(err)
		}
	}
}

// drain ticks until no migration remains, then clears it.
func drain(t testing.TB, srv *cm.Server) {
	t.Helper()
	for i := 0; srv.Reorganizing(); i++ {
		if i > 10000 {
			t.Fatal("migration did not drain in 10000 rounds")
		}
		if err := srv.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.FinishReorganization(); err != nil {
		t.Fatal(err)
	}
}

// locatorState is everything the crash tests compare: the array shape, the
// degraded/reorganizing flags, per-disk health, and the logical disk of
// every block of every object.
type locatorState struct {
	n            int
	reorganizing bool
	degraded     bool
	healthy      []bool
	locs         map[[2]int]int
}

func captureState(t *testing.T, srv *cm.Server) *locatorState {
	t.Helper()
	sn, err := srv.BuildSnapshot(testFactory)
	if err != nil {
		t.Fatal(err)
	}
	st := &locatorState{
		n:            sn.N(),
		reorganizing: sn.Reorganizing(),
		degraded:     sn.Degraded(),
		locs:         make(map[[2]int]int),
	}
	for i := 0; i < sn.N(); i++ {
		st.healthy = append(st.healthy, sn.Healthy(i))
	}
	for _, obj := range sn.Objects() {
		for idx := 0; idx < obj.Blocks; idx++ {
			d, err := sn.Locate(obj.ID, idx)
			if err != nil {
				t.Fatalf("locate %d/%d: %v", obj.ID, idx, err)
			}
			st.locs[[2]int{obj.ID, idx}] = d
		}
	}
	return st
}

func assertSameState(t *testing.T, want, got *locatorState) {
	t.Helper()
	if got.n != want.n {
		t.Fatalf("recovered array has %d disks, want %d", got.n, want.n)
	}
	if got.reorganizing != want.reorganizing {
		t.Fatalf("recovered reorganizing=%v, want %v", got.reorganizing, want.reorganizing)
	}
	if got.degraded != want.degraded {
		t.Fatalf("recovered degraded=%v, want %v", got.degraded, want.degraded)
	}
	for i := range want.healthy {
		if got.healthy[i] != want.healthy[i] {
			t.Fatalf("recovered disk %d healthy=%v, want %v", i, got.healthy[i], want.healthy[i])
		}
	}
	if len(got.locs) != len(want.locs) {
		t.Fatalf("recovered locator covers %d blocks, want %d", len(got.locs), len(want.locs))
	}
	for key, d := range want.locs {
		if got.locs[key] != d {
			t.Fatalf("block %d/%d recovered on disk %d, survivor has it on %d",
				key[0], key[1], got.locs[key], d)
		}
	}
}

func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	st, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func recoverServer(t *testing.T, st *Store) (*cm.Server, *RecoveryInfo) {
	t.Helper()
	srv, info, err := st.Recover(testX0())
	if err != nil {
		t.Fatal(err)
	}
	return srv, info
}

// lastSegment returns the path of the highest-LSN segment in dir.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	best, bestLSN, found := "", uint64(0), false
	for _, e := range entries {
		if lsn, ok := parseLSNName(e.Name(), segPrefix, segSuffix); ok {
			if !found || lsn > bestLSN {
				best, bestLSN, found = e.Name(), lsn, true
			}
		}
	}
	if !found {
		t.Fatalf("no segments in %s", dir)
	}
	return filepath.Join(dir, best)
}

// recordBounds returns the [start, end) byte offsets of every valid record
// in a segment's bytes.
func recordBounds(t *testing.T, data []byte) [][2]int64 {
	t.Helper()
	scan, err := scanSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	var bounds [][2]int64
	off := int64(segHeaderLen)
	for range scan.records {
		payloadLen := int64(uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		end := off + frame.HeaderLen + payloadLen
		bounds = append(bounds, [2]int64{off, end})
		off = end
	}
	return bounds
}

func TestEmptyDataDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	st := openStore(t, dir)
	defer st.Close()
	if st.HasState() {
		t.Fatal("empty directory claims to hold state")
	}
	if _, _, err := st.Recover(testX0()); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("recovering an empty directory: %v, want ErrNoCheckpoint", err)
	}
	if got := st.Status(); got.LSN != 0 || got.Segments != 0 {
		t.Fatalf("empty directory status: %+v", got)
	}
}

func TestBootstrapReopenRecover(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, testConfig(), 4)
	loadObjects(t, srv, 2, 30)

	st := openStore(t, dir)
	if err := st.Bootstrap(srv); err != nil {
		t.Fatal(err)
	}
	// Bootstrapping twice must be refused.
	if err := st.Bootstrap(srv); err == nil {
		t.Fatal("bootstrap over existing state accepted")
	}
	// This object is journaled, not checkpointed.
	if err := srv.AddObject(testObject(10, 20)); err != nil {
		t.Fatal(err)
	}
	want := captureState(t, srv)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	if !st2.HasState() {
		t.Fatal("reopened directory lost its state")
	}
	srv2, info := recoverServer(t, st2)
	if info.ReplayedEvents != 1 {
		t.Fatalf("replayed %d events, want 1", info.ReplayedEvents)
	}
	assertSameState(t, want, captureState(t, srv2))

	// The recovered server journals new events into the same store.
	if err := srv2.AddObject(testObject(11, 20)); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3 := openStore(t, dir)
	srv3, info := recoverServer(t, st3)
	defer st3.Close()
	if info.ReplayedEvents != 2 {
		t.Fatalf("replayed %d events after reopen, want 2", info.ReplayedEvents)
	}
	if srv3.Objects() != 4 {
		t.Fatalf("recovered %d objects, want 4", srv3.Objects())
	}
}

func TestCheckpointWithNoTail(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, testConfig(), 4)
	loadObjects(t, srv, 3, 25)
	st := openStore(t, dir)
	if err := st.Bootstrap(srv); err != nil {
		t.Fatal(err)
	}
	if err := srv.AddObject(testObject(7, 40)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Checkpoint(srv); err != nil {
		t.Fatal(err)
	}
	want := captureState(t, srv)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	srv2, info := recoverServer(t, st2)
	if info.ReplayedEvents != 0 {
		t.Fatalf("replayed %d events, want 0 (checkpoint covers the journal)", info.ReplayedEvents)
	}
	if info.CheckpointLSN != info.LSN {
		t.Fatalf("checkpoint LSN %d != recovered LSN %d", info.CheckpointLSN, info.LSN)
	}
	assertSameState(t, want, captureState(t, srv2))
}

func TestTailWithNoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, testConfig(), 4)
	st := openStore(t, dir)
	if err := st.Bootstrap(srv); err != nil {
		t.Fatal(err)
	}
	if err := srv.AddObject(testObject(1, 10)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Delete every checkpoint, stranding the journal tail.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ckptSuffix) {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	if st2.HasState() {
		t.Fatal("journal without checkpoint claims recoverable state")
	}
	if _, _, err := st2.Recover(testX0()); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("recover: %v, want ErrNoCheckpoint", err)
	}
	// Bootstrapping over an orphaned journal must be refused, not silently
	// interleaved with it.
	if err := st2.Bootstrap(newTestServer(t, testConfig(), 4)); err == nil {
		t.Fatal("bootstrap over an orphaned journal accepted")
	}
}

func TestRecordTruncatedMidCRC(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, testConfig(), 4)
	st := openStore(t, dir)
	if err := st.Bootstrap(srv); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := srv.AddObject(testObject(i, 10)); err != nil {
			t.Fatal(err)
		}
	}
	want := st.LSN() - 1 // state after losing the last record
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Cut the last record inside its CRC field (record header bytes 4..8).
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	bounds := recordBounds(t, data)
	last := bounds[len(bounds)-1]
	if err := os.Truncate(seg, last[0]+6); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	srv2, info := recoverServer(t, st2)
	if !info.TornTail {
		t.Fatal("truncated record not reported as a torn tail")
	}
	if info.LSN != want {
		t.Fatalf("recovered to LSN %d, want %d", info.LSN, want)
	}
	if srv2.Objects() != 2 {
		t.Fatalf("recovered %d objects, want 2 (third event torn)", srv2.Objects())
	}
	// The repair truncated the torn bytes off the file.
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != last[0] {
		t.Fatalf("segment is %d bytes after repair, want %d", fi.Size(), last[0])
	}
}

func TestRecordCorruptCRC(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, testConfig(), 4)
	st := openStore(t, dir)
	if err := st.Bootstrap(srv); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := srv.AddObject(testObject(i, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a payload byte of the middle record: its CRC no longer matches,
	// so it and everything after it is discarded.
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	bounds := recordBounds(t, data)
	mid := bounds[1]
	data[mid[0]+frame.HeaderLen+1] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	srv2, info := recoverServer(t, st2)
	if !info.TornTail || !strings.Contains(info.TornReason, "CRC") {
		t.Fatalf("corrupt record reported as %+v, want a CRC torn tail", info)
	}
	if srv2.Objects() != 1 {
		t.Fatalf("recovered %d objects, want 1 (records 2 and 3 discarded)", srv2.Objects())
	}
}

func TestDuplicateSegmentSequence(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, testConfig(), 4)
	st := openStore(t, dir)
	if err := st.Bootstrap(srv); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := srv.AddObject(testObject(i, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("mislabeled copy", func(t *testing.T) {
		// A byte-identical copy under a later first-LSN name: the header
		// contradicts the filename.
		dup := t.TempDir()
		copyDir(t, dir, dup)
		if err := os.WriteFile(filepath.Join(dup, segmentName(100)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(Config{Dir: dup}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("open with a mislabeled duplicate: %v, want ErrCorrupt", err)
		}
	})

	t.Run("overlapping range", func(t *testing.T) {
		// A consistent segment whose LSN range re-covers journaled LSNs.
		dup := t.TempDir()
		copyDir(t, dir, dup)
		event, err := EncodeEvent(cm.Event{Kind: cm.EventReorgCompleted})
		if err != nil {
			t.Fatal(err)
		}
		forged := append(segmentHeader(2), appendRecord(nil, 2, event)...)
		if err := os.WriteFile(filepath.Join(dup, segmentName(2)), forged, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(Config{Dir: dup}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("open with overlapping segments: %v, want ErrCorrupt", err)
		}
	})
}

// TestGapBridgedByCheckpoint is a regression test for durable-record loss
// across a double crash: a record below the newest checkpoint rots, so the
// old segment chain truncates there, while a newer segment (created when
// appends resumed at ckptLSN+1 after an earlier recovery, or by the
// checkpoint's own rotation) holds fsync-acknowledged post-checkpoint
// events. The resulting inter-segment gap is covered by the checkpoint;
// recovery must keep the newer segment and discard the stale pre-checkpoint
// chain — not delete the newer segment as unreachable.
func TestGapBridgedByCheckpoint(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, testConfig(), 4)
	st := openStore(t, dir)
	if err := st.Bootstrap(srv); err != nil {
		t.Fatal(err)
	}
	// LSNs 1..3 land in the first segment, sealed by the checkpoint at 3.
	loadObjects(t, srv, 3, 10)
	ckptLSN, err := st.Checkpoint(srv)
	if err != nil {
		t.Fatal(err)
	}
	if ckptLSN != 3 {
		t.Fatalf("checkpoint at LSN %d, want 3", ckptLSN)
	}
	// LSN 4 is fsync-acknowledged in the post-checkpoint segment.
	if err := srv.AddObject(testObject(10, 10)); err != nil {
		t.Fatal(err)
	}
	want := captureState(t, srv)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Bit rot below the checkpoint: the sealed segment now truncates at
	// LSN 1, leaving a gap to the post-checkpoint segment.
	seg := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	bounds := recordBounds(t, data)
	mid := bounds[1]
	data[mid[0]+frame.HeaderLen+1] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	srv2, info := recoverServer(t, st2)
	if info.LSN != 4 {
		t.Fatalf("recovered to LSN %d, want 4 — the post-checkpoint segment was dropped", info.LSN)
	}
	if info.ReplayedEvents != 1 {
		t.Fatalf("replayed %d events, want 1", info.ReplayedEvents)
	}
	if info.DroppedSegments != 1 {
		t.Fatalf("dropped %d segments, want 1 (the stale pre-checkpoint segment)", info.DroppedSegments)
	}
	assertSameState(t, want, captureState(t, srv2))
	if _, err := os.Stat(seg); !os.IsNotExist(err) {
		t.Fatal("stale pre-checkpoint segment not removed")
	}
	// The bridged store keeps appending.
	if err := srv2.AddObject(testObject(11, 10)); err != nil {
		t.Fatal(err)
	}
	if err := st2.Err(); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	// And the repaired directory is stable across another open.
	st3 := openStore(t, dir)
	defer st3.Close()
	srv3, info := recoverServer(t, st3)
	if info.LSN != 5 || info.DroppedSegments != 0 || info.TornTail {
		t.Fatalf("second recovery not clean: %+v", info)
	}
	if srv3.Objects() != 5 {
		t.Fatalf("recovered %d objects, want 5", srv3.Objects())
	}
}

func TestCheckpointFallback(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, testConfig(), 4)
	st := openStore(t, dir)
	if err := st.Bootstrap(srv); err != nil {
		t.Fatal(err)
	}
	if err := srv.AddObject(testObject(1, 15)); err != nil {
		t.Fatal(err)
	}
	ckptLSN, err := st.Checkpoint(srv)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddObject(testObject(2, 15)); err != nil {
		t.Fatal(err)
	}
	want := captureState(t, srv)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the newest checkpoint: recovery must fall back to the
	// bootstrap checkpoint and replay the whole journal.
	ckpt := filepath.Join(dir, checkpointName(ckptLSN))
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(ckpt, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	srv2, info := recoverServer(t, st2)
	if info.DroppedCheckpoints != 1 {
		t.Fatalf("dropped %d checkpoints, want 1", info.DroppedCheckpoints)
	}
	if info.CheckpointLSN != 0 {
		t.Fatalf("recovered from checkpoint %d, want the bootstrap checkpoint", info.CheckpointLSN)
	}
	if info.ReplayedEvents != 2 {
		t.Fatalf("replayed %d events, want 2", info.ReplayedEvents)
	}
	assertSameState(t, want, captureState(t, srv2))
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Fatal("invalid checkpoint file not removed")
	}
}

func TestSegmentRotationAndPruning(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, testConfig(), 4)
	st, err := Open(Config{Dir: dir, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Bootstrap(srv); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := srv.AddObject(testObject(i, 5)); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.Status(); got.Segments < 3 {
		t.Fatalf("%d appends over a 64-byte threshold produced %d segments", 12, got.Segments)
	}

	// Three checkpoints: only the newest two survive, and segments wholly
	// below the older retained one are pruned.
	for i := 0; i < 3; i++ {
		if err := srv.AddObject(testObject(100+i, 5)); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Checkpoint(srv); err != nil {
			t.Fatal(err)
		}
	}
	var ckpts, segs int
	var oldestSeg uint64
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if lsn, ok := parseLSNName(e.Name(), segPrefix, segSuffix); ok {
			segs++
			if oldestSeg == 0 || lsn < oldestSeg {
				oldestSeg = lsn
			}
		} else if _, ok := parseLSNName(e.Name(), ckptPrefix, ckptSuffix); ok {
			ckpts++
		}
	}
	if ckpts != checkpointRetain {
		t.Fatalf("%d checkpoint files on disk, want %d", ckpts, checkpointRetain)
	}
	if oldestSeg <= 1 {
		t.Fatal("segments below the retained checkpoints were not pruned")
	}
	if segs != st.Status().Segments {
		t.Fatalf("%d segment files on disk, store tracks %d", segs, st.Status().Segments)
	}

	// The pruned journal still recovers.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir)
	defer st2.Close()
	srv2, _ := recoverServer(t, st2)
	if srv2.Objects() != srv.Objects() {
		t.Fatalf("recovered %d objects, want %d", srv2.Objects(), srv.Objects())
	}
}

// copyDir clones every regular file of src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJournalIdentity: minted once on the first writable Open, stable
// across reopens, distinct per directory, readable (but never minted) by a
// ReadOnly open.
func TestJournalIdentity(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	id := s.JournalID()
	s.Close()
	if len(id) != 32 {
		t.Fatalf("journal identity %q is not 32 hex chars", id)
	}

	s, err = Open(Config{Dir: dir, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.JournalID(); got != id {
		t.Fatalf("reopen read identity %q, minted %q", got, id)
	}
	s.Close()

	other, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if other.JournalID() == id {
		t.Fatalf("two directories share identity %q", id)
	}

	// ReadOnly open of a directory no writer has touched: no identity, and
	// no file minted behind the inspector's back.
	legacy := t.TempDir()
	ro, err := Open(Config{Dir: legacy, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if got := ro.JournalID(); got != "" {
		t.Fatalf("ReadOnly open minted identity %q", got)
	}
	if _, err := os.Stat(filepath.Join(legacy, journalIDName)); !os.IsNotExist(err) {
		t.Fatalf("ReadOnly open wrote %s (stat err %v)", journalIDName, err)
	}

	// A corrupt identity file is replaced, which safely forces followers to
	// re-bootstrap.
	if err := os.WriteFile(filepath.Join(dir, journalIDName), []byte("not hex"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err = Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.JournalID(); len(got) != 32 || got == id {
		t.Fatalf("corrupt identity replaced with %q (old %q)", got, id)
	}
}

// TestAppendRejectsOversizeRecord: the journal must never acknowledge a
// record its own recovery refuses. An event whose record would exceed
// maxRecordLen fails the append — sticky, visible through Err and Status,
// before any byte is written — and reopening recovers every earlier event
// with no torn tail. (Unchecked, the oversize record and every event after
// it were acked, fsynced, and silently truncated away by the next open.)
func TestAppendRejectsOversizeRecord(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, testConfig(), 4)
	st := openStore(t, dir)
	if err := st.Bootstrap(srv); err != nil {
		t.Fatal(err)
	}
	if err := srv.AddObject(testObject(0, 10)); err != nil {
		t.Fatal(err)
	}
	acked := st.LSN()

	huge := cm.Event{Kind: cm.EventBlocksMigrated, Moves: make([]cm.BlockPos, 2<<20)}
	for i := range huge.Moves {
		huge.Moves[i] = cm.BlockPos{Object: 1 << 20, Index: 1 << 20} // 4-byte uvarints: over 8 MiB in all
	}
	if lsn, err := st.Append(huge); err == nil {
		t.Fatalf("oversize event acknowledged as LSN %d", lsn)
	}
	if st.Err() == nil || st.Status().Err == "" {
		t.Fatal("rejected append not reported through Err and Status")
	}
	if _, err := st.Append(cm.Event{Kind: cm.EventReorgCompleted}); err == nil {
		t.Fatal("append after a journal failure succeeded; failures must be sticky")
	}
	if got := st.LSN(); got != acked {
		t.Fatalf("LSN moved from %d to %d across rejected appends", acked, got)
	}
	st.Close()

	st2 := openStore(t, dir)
	defer st2.Close()
	srv2, info := recoverServer(t, st2)
	if info.TornTail || info.TruncatedBytes != 0 || info.DroppedSegments != 0 {
		t.Fatalf("recovery after a rejected append distrusted the journal: %+v", info)
	}
	if st2.LSN() != acked || srv2.Objects() != 1 {
		t.Fatalf("recovered LSN %d with %d objects, want LSN %d with 1", st2.LSN(), srv2.Objects(), acked)
	}
}
