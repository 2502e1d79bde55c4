package dataplane

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"scaddar/internal/disk"
	"scaddar/internal/frame"
	"scaddar/internal/scaddar"
)

// golden reads one committed golden file.
func golden(tb testing.TB, name string) []byte {
	tb.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// FuzzChunkFrame reads arbitrary bytes as a chunk stream the way a client
// does — as they are, and again sealed as one frame's payload so the fuzzer
// reaches the tag and the block index behind a valid checksum. The reader
// never panics, fails only with ErrFrameCorrupt or a bare io.EOF between
// frames, never hands out a negative block index or more data than it was
// given, and what it accepts survives encode → decode.
func FuzzChunkFrame(f *testing.F) {
	data, end := golden(f, "chunk-data.bin"), golden(f, "chunk-end.bin")
	f.Add(append(append([]byte(nil), data...), end...))
	f.Add(data[frame.HeaderLen:])
	f.Add(end[frame.HeaderLen:])
	f.Add(binary.AppendUvarint([]byte{frameData}, 1<<63)) // an index no int holds
	f.Add([]byte{frameEnd})
	f.Add([]byte{7, 7, 7})

	f.Fuzz(func(t *testing.T, in []byte) {
		streams := [][]byte{in}
		if len(in) > 0 {
			streams = append(streams, frame.Finish(append(frame.Begin(nil), in...), 0))
		}
		for _, stream := range streams {
			br := bufio.NewReader(bytes.NewReader(stream))
			var scratch []byte
			for {
				// A forged length below the 64 MiB bound costs frame.Read an
				// allocation of that size before the stream runs dry: within
				// its contract (FuzzFrame), and too slow to fuzz through.
				if hdr, _ := br.Peek(4); len(hdr) == 4 && binary.LittleEndian.Uint32(hdr) > 1<<20 {
					break
				}
				fr, err := ReadFrameInto(br, scratch)
				if err != nil {
					if err != io.EOF && !errors.Is(err, ErrFrameCorrupt) {
						t.Fatalf("read error %v is neither io.EOF nor ErrFrameCorrupt", err)
					}
					break
				}
				if fr.Index < 0 || len(fr.Data) > len(stream) {
					t.Fatalf("frame with index %d and %d data bytes out of a %d-byte stream", fr.Index, len(fr.Data), len(stream))
				}
				wire := AppendEndFrame(nil, fr.Reason)
				if !fr.End {
					wire = AppendDataFrame(nil, fr.Index, fr.Data)
				}
				back, err := ReadFrame(bufio.NewReader(bytes.NewReader(wire)))
				if err != nil || back.End != fr.End || back.Reason != fr.Reason || back.Index != fr.Index || !bytes.Equal(back.Data, fr.Data) {
					t.Fatalf("accepted frame %+v re-reads as %+v, %v", fr, back, err)
				}
				scratch = fr.Data[:0] // the next read may reuse it, as a client's loop does
			}
		}
	})
}

// FuzzSegmentRecord covers the two things a segment store reads back from
// its directory. Arbitrary bytes as a record payload: decodeRecord never
// panics and returns only a slice of its input. The same bytes as the body
// of index.idx, sealed under a valid magic, version and checksum, against a
// store with one 4 KiB segment: the loader never panics, sizes nothing by a
// count the file could not hold, and an index it accepts places every record
// inside the bytes its segment table covers — so no read it leads to can
// carry a negative offset or length.
func FuzzSegmentRecord(f *testing.F) {
	f.Add(golden(f, "segment-put.bin")[frame.HeaderLen:])
	f.Add(golden(f, "segment-del.bin")[frame.HeaderLen:])
	uvarints := func(vs ...uint64) (b []byte) {
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	f.Add(uvarints(1, 0, 4096, 1, 300, 0, 13, 33))    // one segment; block 300 at offset 13, 33 bytes
	f.Add(uvarints(1, 0, 4096, 1, 300, 0, 1<<63, 33)) // an offset no int64 holds
	f.Add(uvarints(1, 0, 4096, 1<<40))                // an entry count no file holds
	f.Add([]byte{})

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, in []byte) {
		if _, _, data, ok := decodeRecord(in); ok && len(data) >= len(in) {
			t.Fatalf("record data of %d bytes out of a %d-byte payload", len(data), len(in))
		}
		idx := append(append([]byte(indexMagic), segVersion), in...)
		idx = binary.LittleEndian.AppendUint32(idx, frame.Checksum(idx))
		if err := os.WriteFile(filepath.Join(dir, indexFileName), idx, 0o644); err != nil {
			t.Fatal(err)
		}
		s := &Store{dir: dir, bySeq: map[uint64]*segment{0: {seq: 0, size: 4096}}}
		covered, ok := s.loadIndexCheckpoint()
		if !ok {
			return
		}
		if len(covered) > len(in) || len(s.index) > len(in) {
			t.Fatalf("%d segments and %d entries out of %d bytes", len(covered), len(s.index), len(in))
		}
		for bid, e := range s.index {
			size, known := covered[e.seg]
			if !known || e.off < 0 || e.n < 0 || e.off+frame.HeaderLen+int64(e.n) > size || size > 4096 {
				t.Fatalf("accepted entry %+v for block %d: segment covered to %d (known %v)", e, disk.BlockID(bid), size, known)
			}
		}
	})
}

// FuzzLocatorFeed reads arbitrary bytes as the two replies of the locator feed
// the way a follower does — a snapshot body, then a delta page, through the
// decoders Follow calls — and then asks the locator where blocks are. Neither
// decoder panics or hangs; whatever they installed, Locate and Answer agree
// and name a disk in [0, N) or none; a snapshot or an embedded one that lists
// an unhealthy disk, a pre-removal index or a pending source outside the array
// is refused; and a locator that took nothing answers nothing.
func FuzzLocatorFeed(f *testing.F) {
	hist, err := scaddar.MustNewHistory(3).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	grown := scaddar.MustNewHistory(3)
	if _, err := grown.Add(2); err != nil {
		f.Fatal(err)
	}
	grownHist, err := grown.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	snap := Snapshot{Seq: 4, Incarnation: 99, N: 3, Bits: 64, History: hist, Unhealthy: []int{1},
		Objects: []ObjectInfo{{ID: 0, Seed: 42, Blocks: 8}, {ID: 5, Seed: 43, Blocks: 3}},
		Pending: []PendingBlock{{Object: 0, Index: 1, From: 2}}, Reorganizing: true}
	after := Snapshot{N: 5, Bits: 64, History: grownHist, Objects: snap.Objects, Unhealthy: []int{4}}
	encode := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	page := DeltaPage{Seq: 6, Incarnation: 99, Deltas: []Delta{
		{Seq: 5, Kind: DeltaMoves, Moves: []MovedBlock{{Object: 0, Index: 1}}}, {Seq: 6, Kind: DeltaSnapshot, Snapshot: &after}}}
	f.Add(encode(snap), encode(page))
	f.Add(encode(snap), encode(DeltaPage{Seq: 4, Incarnation: 99, Deltas: []Delta{}}))
	f.Add(encode(snap), encode(DeltaPage{Seq: 9, Incarnation: 98, Deltas: page.Deltas}))        // another incarnation's page
	f.Add(encode(snap), encode(DeltaPage{Seq: 9, Deltas: []Delta{{Seq: 9, Kind: DeltaMoves}}})) // a gap
	hostile := snap
	hostile.Unhealthy = []int{3}
	f.Add(encode(hostile), encode(page))
	hostile = after
	hostile.PreOf = []int{0, 1, 2, 3, 9}
	f.Add(encode(snap), encode(DeltaPage{Seq: 5, Deltas: []Delta{{Seq: 5, Kind: DeltaSnapshot, Snapshot: &hostile}}}))
	f.Add([]byte(`{"n":1e9,"bits":64,"unhealthy":[999999999]}`), []byte(`{"deltas":[{"seq":1,"kind":"snapshot"}]}`))
	f.Add([]byte(`null`), []byte(`[]`))

	f.Fuzz(func(t *testing.T, snapBody, pageBody []byte) {
		loc := NewClientLocator(splitMix)
		snapErr := loc.applySnapshot(snapBody)
		if snapErr != nil {
			if a, ok := loc.Answer(0, 0); ok || a.Pos != (FeedPos{}) {
				t.Fatalf("the snapshot was refused (%v) and the locator answers %+v", snapErr, a)
			}
		}
		_, pageErr := loc.applyPage(pageBody)
		if snapErr != nil && pageErr == nil && loc.Seq() != 0 {
			t.Fatalf("a page moved a locator without a snapshot to %+v", loc.Pos())
		}
		n := loc.N()
		objs := loc.Objects()
		for _, o := range objs[:min(8, len(objs))] {
			for _, idx := range [...]int{-1, 0, o.Blocks / 2, o.Blocks - 1, o.Blocks} {
				d, err := loc.Locate(o.ID, idx)
				a, ok := loc.Answer(o.ID, idx)
				if ok != (err == nil) || ok && (a.Disk != d || d < 0 || d >= n) {
					t.Fatalf("object %d block %d of %d on %d disks: Locate = %d, %v; Answer = %+v, %v", o.ID, idx, o.Blocks, n, d, err, a, ok)
				}
				if in := idx >= 0 && idx < o.Blocks; ok && !in {
					t.Fatalf("object %d has %d blocks and block %d is on disk %d", o.ID, o.Blocks, idx, d)
				}
			}
		}
	})
}

// FuzzFeedLag runs a script of publishes against a feed of capacity 16 — moves
// deltas that retire pending blocks, snapshot deltas that install the 3- or the
// 5-disk array with a fresh pending set — past two followers: one polls after
// every publish, the other only where the script says so. Whatever the lags,
// the second ends where the first does, and where a locator given the
// snapshot served at the head does. It may be refused (and then resyncs from
// that snapshot) only when it fell out of a ring that begins with a moves
// delta: never while fewer than 16 deltas follow the newest snapshot delta.
func FuzzFeedLag(f *testing.F) {
	f.Add([]byte{0, 4, 1, 8, 3})                             // moves, snapshot, moves, moves, poll: a page that begins above after+1
	f.Add([]byte{1, 1, 3, 1, 1, 1, 2, 6, 1, 3})              // two snapshot deltas between polls
	f.Add(append(bytes.Repeat([]byte{0}, 40), 3))            // out of a moves-headed ring: the one 410
	f.Add(append([]byte{2}, bytes.Repeat([]byte{5}, 15)...)) // a full ring with the snapshot delta still at its head
	f.Fuzz(func(t *testing.T, script []byte) {
		feed := NewFeed(16)
		// served is what a snapshot fetch is answered with: the newest snapshot
		// delta's state less the blocks moved since, at the feed's position.
		served := wireSnapshot(t)
		sinceSnapshot := 0 // deltas published after the newest snapshot delta; the initial state counts as one
		fetch := func() *Snapshot {
			snap := *served
			pos := feed.Pos()
			snap.Seq, snap.Incarnation, snap.Reorganizing = pos.Seq, pos.ID, len(snap.Pending) > 0
			return &snap
		}
		poll := func(loc *ClientLocator, mayRefuse bool) {
			page, _, err := feed.Since(loc.Pos())
			if err != nil {
				if !mayRefuse {
					t.Fatalf("cursor %+v refused with %d deltas since the newest snapshot delta: %v", loc.Pos(), sinceSnapshot, err)
				}
				if err := loc.ApplySnapshot(fetch()); err != nil {
					t.Fatal(err)
				}
				return
			}
			for _, d := range page {
				if err := loc.Apply(d); err != nil {
					t.Fatalf("applying delta %d (%s) at %+v: %v", d.Seq, d.Kind, loc.Pos(), err)
				}
			}
		}
		eager, lagging := NewClientLocator(splitMix), NewClientLocator(splitMix)
		for _, loc := range []*ClientLocator{eager, lagging} {
			if err := loc.ApplySnapshot(fetch()); err != nil {
				t.Fatal(err)
			}
		}
		for _, op := range script[:min(len(script), 256)] {
			switch {
			case op%4 == 3:
				poll(lagging, sinceSnapshot >= 16)
				continue
			case op%4 == 2:
				pending := []int{0}
				for idx := 1; idx < 7; idx++ {
					if op>>2>>(idx-1)&1 != 0 {
						pending = append(pending, idx)
					}
				}
				if served = grownSnapshot(t, pending...); op&128 != 0 { // back to three disks
					served.N, served.History = 3, wireSnapshot(t).History
				}
				feed.Publish(Delta{Kind: DeltaSnapshot, Snapshot: fetch()})
				sinceSnapshot = 0
			default:
				k := min(int(op>>2)%3, len(served.Pending))
				var moves []MovedBlock
				for _, p := range served.Pending[:k] {
					moves = append(moves, MovedBlock{Object: p.Object, Index: p.Index})
				}
				next := *served
				next.Pending = served.Pending[k:]
				served = &next
				feed.Publish(Delta{Kind: DeltaMoves, Moves: moves})
				sinceSnapshot++
			}
			poll(eager, false)
		}
		poll(lagging, sinceSnapshot >= 16)
		sameLocator(t, "the lagging follower", lagging, eager)
		bootstrapped := NewClientLocator(splitMix)
		if err := bootstrapped.ApplySnapshot(fetch()); err != nil {
			t.Fatal(err)
		}
		sameLocator(t, "a follower bootstrapped at the head", bootstrapped, eager)
	})
}
