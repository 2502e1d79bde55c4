package store

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"scaddar/internal/cm"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files from the encoders")

// checkGolden compares got with testdata/name (rewriting it under -update)
// and returns the committed bytes.
func checkGolden(t *testing.T, name string, got []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: encoder emits\n% x\ncommitted golden is\n% x", name, got, want)
	}
	return want
}

// TestGoldenJournalRecord pins the bytes of one journal record — envelope,
// uvarint LSN, event encoding — so an encoder change cannot silently orphan
// existing data directories, and reads the committed bytes back through the
// recovery scanner.
func TestGoldenJournalRecord(t *testing.T) {
	moves := []cm.BlockPos{{Object: 2, Index: 0}, {Object: 2, Index: 4}}
	event, err := EncodeEvent(cm.Event{Kind: cm.EventBlocksMigrated, Moves: moves})
	if err != nil {
		t.Fatal(err)
	}
	golden := checkGolden(t, "journal-record.bin", appendRecord(nil, 300, event))

	scan, err := scanSegment(append(segmentHeader(300), golden...))
	if err != nil || scan.truncated || len(scan.records) != 1 {
		t.Fatalf("scan of golden record: %+v, %v", scan, err)
	}
	if rec := scan.records[0]; rec.lsn != 300 || !bytes.Equal(rec.event, event) {
		t.Fatalf("golden record scanned as LSN %d event % x", rec.lsn, rec.event)
	}
}
