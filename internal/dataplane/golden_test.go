package dataplane

import (
	"bufio"
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
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

// TestGoldenChunkFrames pins the bytes of one stream data frame and one end
// frame, and reads the committed bytes back through the client decoder.
func TestGoldenChunkFrames(t *testing.T) {
	data := SeededContent(42, 300, 24)
	wire := checkGolden(t, "chunk-data.bin", AppendDataFrame(nil, 300, data))
	wire = append(wire, checkGolden(t, "chunk-end.bin", AppendEndFrame(nil, CloseEvicted))...)

	br := bufio.NewReader(bytes.NewReader(wire))
	if f, err := ReadFrame(br); err != nil || f.End || f.Index != 300 || !bytes.Equal(f.Data, data) {
		t.Fatalf("golden data frame read as %+v, %v", f, err)
	}
	if f, err := ReadFrame(br); err != nil || !f.End || f.Reason != CloseEvicted {
		t.Fatalf("golden end frame read as %+v, %v", f, err)
	}
}

// TestGoldenSegmentRecords pins the bytes a Put and a Delete append to a
// segment file, and opens a segment assembled from the committed bytes: the
// put must index and verify, the tombstone must delete.
func TestGoldenSegmentRecords(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := SeededContent(7, 300, 24)
	if err := s.Put(300, data); err != nil {
		t.Fatal(err)
	}
	path, putEnd := s.active().path, s.active().size
	if err := s.Delete(300); err != nil {
		t.Fatal(err)
	}
	s.closeFiles()
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	put := checkGolden(t, "segment-put.bin", file[segHeaderLen:putEnd])
	del := checkGolden(t, "segment-del.bin", file[putEnd:])

	for _, tc := range []struct {
		name    string
		records []byte
		live    bool
	}{
		{"put", put, true},
		{"put+del", append(append([]byte(nil), put...), del...), false},
	} {
		dir := t.TempDir()
		seg := append(append([]byte(nil), file[:segHeaderLen]...), tc.records...)
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(path)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenStore(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Get(300)
		if tc.live && (err != nil || !bytes.Equal(got, data)) {
			t.Fatalf("%s: Get = % x, %v", tc.name, got, err)
		}
		if !tc.live && err == nil {
			t.Fatalf("%s: block survived its golden tombstone", tc.name)
		}
		if size := r.active().size; size != int64(len(seg)) {
			t.Fatalf("%s: open truncated the golden segment to %d of %d bytes", tc.name, size, len(seg))
		}
		r.Close()
	}
}
