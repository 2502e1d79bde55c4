package repl

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"scaddar/internal/frame"
)

// FuzzReplPayload covers the four payloads a follower decodes off the wire.
// Built from the fuzzer's numbers and bytes, each survives encode → decode
// unchanged. Fed the bytes as they are, dispatched on the first one as the
// follower dispatches, a decoder never panics, fails only with errBadFrame,
// returns slices of its input and nothing larger (a checkpoint or an event
// is never sized by a declared length), and whatever it accepts survives
// encode → decode too.
func FuzzReplPayload(f *testing.F) {
	for _, name := range []string{"record.bin", "heartbeat.bin"} {
		golden, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(golden[frame.HeaderLen:], uint64(300), uint64(5))
	}
	id := journalID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	f.Add(encodeHelloSnapshot(helloSnapshot{journal: id, ckptLSN: 40, ckptEpoch: 2, durableLSN: 44, leaderEpoch: 3, ckptData: []byte("SCCK...")}), uint64(0), uint64(0))
	f.Add(encodeHelloResume(helloResume{journal: id, resumeLSN: 45, durableLSN: 44, leaderEpoch: 3}), uint64(1)<<63, uint64(1))
	f.Add([]byte{frameHelloSnapshot, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}, uint64(0), uint64(0)) // no room for the identity
	f.Add([]byte{}, uint64(0), uint64(0))

	f.Fuzz(func(t *testing.T, data []byte, a, b uint64) {
		var id journalID
		copy(id[:], data)
		snap := helloSnapshot{journal: id, ckptLSN: a, ckptEpoch: b, durableLSN: a + b, leaderEpoch: b + 1, ckptData: data}
		if got, err := decodeHelloSnapshot(encodeHelloSnapshot(snap)); err != nil || !snapshotsEqual(got, snap) {
			t.Fatalf("hello-snapshot %+v decodes as %+v, %v", snap, got, err)
		}
		resume := helloResume{journal: id, resumeLSN: a, durableLSN: b, leaderEpoch: a ^ b}
		if got, err := decodeHelloResume(encodeHelloResume(resume)); err != nil || got != resume {
			t.Fatalf("hello-resume %+v decodes as %+v, %v", resume, got, err)
		}
		if lsn, event, err := decodeRecord(encodeRecord(a, data)); err != nil || lsn != a || !bytes.Equal(event, data) {
			t.Fatalf("record %d % x decodes as %d % x, %v", a, data, lsn, event, err)
		}
		beat := heartbeat{durableLSN: a, durableEpoch: b}
		if got, err := decodeHeartbeat(encodeHeartbeat(beat)); err != nil || got != beat {
			t.Fatalf("heartbeat %+v decodes as %+v, %v", beat, got, err)
		}

		if len(data) == 0 {
			return // frame.Read never yields an empty payload
		}
		var err error
		switch data[0] {
		case frameHelloSnapshot:
			var h, back helloSnapshot
			if h, err = decodeHelloSnapshot(data); err == nil {
				if len(h.ckptData) >= len(data) {
					t.Fatalf("checkpoint of %d bytes out of a %d-byte payload", len(h.ckptData), len(data))
				}
				if back, err = decodeHelloSnapshot(encodeHelloSnapshot(h)); err != nil || !snapshotsEqual(back, h) {
					t.Fatalf("accepted hello-snapshot %+v re-decodes as %+v, %v", h, back, err)
				}
			}
		case frameHelloResume:
			var h, back helloResume
			if h, err = decodeHelloResume(data); err == nil {
				if back, err = decodeHelloResume(encodeHelloResume(h)); err != nil || back != h {
					t.Fatalf("accepted hello-resume %+v re-decodes as %+v, %v", h, back, err)
				}
			}
		case frameRecord:
			var lsn uint64
			var event []byte
			if lsn, event, err = decodeRecord(data); err == nil && len(event) >= len(data) {
				t.Fatalf("record %d: event of %d bytes out of a %d-byte payload", lsn, len(event), len(data))
			}
		case frameHeartbeat:
			var h, back heartbeat
			if h, err = decodeHeartbeat(data); err == nil {
				if back, err = decodeHeartbeat(encodeHeartbeat(h)); err != nil || back != h {
					t.Fatalf("accepted heartbeat %+v re-decodes as %+v, %v", h, back, err)
				}
			}
		}
		if err != nil && !errors.Is(err, errBadFrame) {
			t.Fatalf("decode error %v is not errBadFrame", err)
		}
	})
}

// snapshotsEqual compares two hello-snapshots, an empty checkpoint equal to
// a nil one.
func snapshotsEqual(a, b helloSnapshot) bool {
	data := bytes.Equal(a.ckptData, b.ckptData)
	a.ckptData, b.ckptData = nil, nil
	return data && reflect.DeepEqual(a, b)
}
