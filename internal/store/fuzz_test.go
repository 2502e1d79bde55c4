package store

import (
	"encoding/binary"
	"reflect"
	"testing"

	"scaddar/internal/cm"
	"scaddar/internal/disk"
	"scaddar/internal/frame"
)

// fuzzSeedSegment builds a well-formed segment holding one record per event
// kind, so the fuzzer starts from inputs that reach every decode path.
func fuzzSeedSegment(tb testing.TB) []byte {
	tb.Helper()
	profile := disk.Cheetah73
	events := []cm.Event{
		{Kind: cm.EventObjectAdded, Object: testObject(1, 10)},
		{Kind: cm.EventObjectRemoved, ObjectID: 1},
		{Kind: cm.EventIngestCommitted, Object: testObject(2, 5)},
		{Kind: cm.EventScaleUpStarted, Count: 2},
		{Kind: cm.EventScaleUpStarted, Count: 1, Profile: &profile},
		{Kind: cm.EventScaleDownStarted, Disks: []int{3, 1}},
		{Kind: cm.EventRedistributeStarted},
		{Kind: cm.EventBlocksMigrated, Moves: []cm.BlockPos{{Object: 2, Index: 0}, {Object: 2, Index: 4}}},
		{Kind: cm.EventReorgCompleted},
		{Kind: cm.EventDiskFailed, Disk: 1, Lost: []cm.BlockPos{{Object: 2, Index: 3}}},
		{Kind: cm.EventDiskRepaired, Disk: 1},
		{Kind: cm.EventBlocksRebuilt, Rebuilt: []cm.RebuildPos{{Kind: 0, Object: 2, Index: 3}, {Kind: 1, Object: 2, Index: 3}}},
	}
	seg := segmentHeader(7)
	for i, ev := range events {
		payload, err := EncodeEvent(ev)
		if err != nil {
			tb.Fatal(err)
		}
		seg = appendRecord(seg, 7+uint64(i), payload)
	}
	return seg
}

// FuzzJournal throws arbitrary bytes at the segment scanner and the event
// decoder: neither may panic or over-allocate, a scan must never trust
// bytes past the input, and every record the scanner accepts must decode
// into an event that re-encodes byte-compatibly (the journal's round-trip
// invariant — what was written is what replays).
func FuzzJournal(f *testing.F) {
	seed := fuzzSeedSegment(f)
	f.Add(seed)
	f.Add(seed[:len(seed)-3])  // torn tail
	f.Add(seed[:segHeaderLen]) // bare header
	f.Add([]byte(segMagic))    // short header
	f.Add(segmentHeader(1))    // empty segment at LSN 1
	f.Add([]byte("not a segment at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		scan, err := scanSegment(data)
		if err != nil {
			return
		}
		if scan.validLen < segHeaderLen || scan.validLen > int64(len(data)) {
			t.Fatalf("validLen %d outside [header, %d]", scan.validLen, len(data))
		}
		wantLSN := scan.firstLSN
		for _, rec := range scan.records {
			if rec.lsn != wantLSN {
				t.Fatalf("accepted records break LSN continuity: %d after %d", rec.lsn, wantLSN-1)
			}
			wantLSN++
			ev, err := DecodeEvent(rec.event)
			if err != nil {
				continue // CRC-valid but semantically rejected: fine
			}
			// An accepted event must survive encode → decode unchanged.
			enc, err := EncodeEvent(ev)
			if err != nil {
				t.Fatalf("decoded event %+v refuses to re-encode: %v", ev, err)
			}
			back, err := DecodeEvent(enc)
			if err != nil {
				t.Fatalf("re-encoded event %+v refuses to decode: %v", ev, err)
			}
			if !reflect.DeepEqual(ev, back) {
				t.Fatalf("event round-trip mismatch:\n first: %+v\nsecond: %+v", ev, back)
			}
		}
	})
}

// fuzzSeedCheckpoint is a real checkpoint file: a server that scaled up and
// down once, with a non-default profile, two objects, at LSN 41 epoch 3.
func fuzzSeedCheckpoint(tb testing.TB) []byte {
	tb.Helper()
	cfg := testConfig()
	cfg.Profile = disk.Cheetah73
	cfg.MeasureRounds = true
	srv := newTestServer(tb, cfg, 5)
	for id := 1; id <= 2; id++ {
		if err := srv.AddObject(testObject(id, 6)); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := srv.ScaleUp(2); err != nil {
		tb.Fatal(err)
	}
	drain(tb, srv)
	if _, err := srv.ScaleDown(1, 4); err != nil {
		tb.Fatal(err)
	}
	drain(tb, srv)
	md, err := srv.ExportMetadata()
	if err != nil {
		tb.Fatal(err)
	}
	data, err := encodeCheckpoint(41, 3, cfg, md)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzCheckpoint throws arbitrary bytes at the checkpoint decoder and, under
// it, cm.DecodeMetadataBinary and the History codec — as a file, and again
// sealed as a payload under a valid magic, version and checksum so the
// fuzzer reaches the fields. Neither may panic or size anything by a length
// the input could not hold, and what either accepts must survive encode →
// decode unchanged: what a follower bootstraps from is what the leader had.
func FuzzCheckpoint(f *testing.F) {
	seed := fuzzSeedCheckpoint(f)
	f.Add(seed)
	f.Add(seed[:len(seed)-1])   // checksum fails
	f.Add(seed[ckptHeaderLen:]) // a payload to seal
	f.Add(seed[ckptHeaderLen : len(seed)-7])
	f.Add([]byte(ckptMagic))
	f.Add([]byte("SCMD\x01\x40\x00\x08SCDR\x01\x04\x00\x00")) // bare metadata: 4 disks, no objects

	f.Fuzz(func(t *testing.T, data []byte) {
		sealed := append([]byte(ckptMagic), ckptVersion)
		sealed = append(binary.LittleEndian.AppendUint32(sealed, frame.Checksum(data)), data...)
		for _, file := range [][]byte{data, sealed} {
			lsn, epoch, cfg, md, err := DecodeCheckpointData(file)
			if err != nil {
				continue
			}
			enc, err := encodeCheckpoint(lsn, epoch, cfg, md)
			if err != nil {
				t.Fatalf("decoded checkpoint refuses to re-encode: %v", err)
			}
			lsn2, epoch2, cfg2, md2, err := DecodeCheckpointData(enc)
			if err != nil {
				t.Fatalf("re-encoded checkpoint refuses to decode: %v", err)
			}
			if lsn2 != lsn || epoch2 != epoch || !reflect.DeepEqual(cfg2, cfg) ||
				md2.History.String() != md.History.String() || !reflect.DeepEqual(md2.Objects, md.Objects) {
				t.Fatalf("checkpoint round-trip mismatch:\n first: %d %d %+v %+v\nsecond: %d %d %+v %+v",
					lsn, epoch, cfg, md, lsn2, epoch2, cfg2, md2)
			}
		}
		md, err := cm.DecodeMetadataBinary(data)
		if err != nil {
			return
		}
		enc, err := cm.EncodeMetadataBinary(md)
		if err != nil {
			t.Fatalf("decoded metadata refuses to re-encode: %v", err)
		}
		if back, err := cm.DecodeMetadataBinary(enc); err != nil || back.History.String() != md.History.String() ||
			back.Epoch != md.Epoch || back.Bits != md.Bits || !reflect.DeepEqual(back.Objects, md.Objects) {
			t.Fatalf("metadata round-trip mismatch (%v):\n first: %+v\nsecond: %+v", err, md, back)
		}
	})
}
