package binproto

import (
	"bufio"
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"scaddar/internal/frame"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden frames from the encoders")

// goldenFrames builds every frame documented in docs/PROTOCOL.md with the
// package's real encoders. The names match the <!-- golden:NAME --> markers
// in the spec and the testdata file names.
func goldenFrames(t *testing.T) map[string][]byte {
	t.Helper()
	framed := func(payload []byte) []byte {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if err := frame.Write(bw, payload, MaxFrameLen); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	var hs bytes.Buffer
	if err := writeHandshake(&hs, Version); err != nil {
		t.Fatal(err)
	}

	// Request: corr 7, lookups (1,0) (1,7) (9,4).
	req := appendHeader(nil, OpLocateBatch, 7)
	req = le.AppendUint32(req, 3)
	for _, e := range [][2]uint32{{1, 0}, {1, 7}, {9, 4}} {
		req = le.AppendUint32(le.AppendUint32(req, e[0]), e[1])
	}

	// Response: epoch 5, FlagDegraded, disks 3/6/0 with statuses
	// OK / OK|EntryUnhealthy / ErrCodeUnknownObject.
	resp := appendHeader(nil, OpLocateBatch|RespFlag, 7)
	resp = le.AppendUint64(resp, 5)
	resp = append(resp, FlagDegraded)
	resp = le.AppendUint32(resp, 3)
	resp = append(le.AppendUint32(resp, 3), 0)
	resp = append(le.AppendUint32(resp, 6), EntryUnhealthy)
	resp = append(le.AppendUint32(resp, 0), ErrCodeUnknownObject)

	return map[string][]byte{
		"handshake":            hs.Bytes(),
		"batch3-request":       framed(req),
		"batch3-response":      framed(resp),
		"error-unknown-opcode": framed(appendError(nil, 9, ErrCodeUnknownOpcode, 0x6F, "unknown opcode 0x6f")),
		// §1.1: the client's request to a gateway at shard-0:8080, then the
		// server's whole answer.
		"upgrade": append(AppendUpgradeRequest(nil, "", "shard-0:8080"), UpgradeReply...),
	}
}

// specHexBlocks extracts the hex dumps from docs/PROTOCOL.md: each
// <!-- golden:NAME --> marker is followed by a fenced block whose lines are
// hex bytes with an optional "; comment" tail.
func specHexBlocks(t *testing.T) map[string][]byte {
	t.Helper()
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "PROTOCOL.md"))
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile("(?s)<!-- golden:([a-z0-9-]+) -->\\s*```\n(.*?)```")
	blocks := map[string][]byte{}
	for _, m := range re.FindAllStringSubmatch(string(doc), -1) {
		name, body := m[1], m[2]
		var b []byte
		for _, line := range strings.Split(body, "\n") {
			if i := strings.IndexByte(line, ';'); i >= 0 {
				line = line[:i]
			}
			for _, tok := range strings.Fields(line) {
				v, err := strconv.ParseUint(tok, 16, 8)
				if err != nil {
					t.Fatalf("golden block %q: bad hex token %q: %v", name, tok, err)
				}
				b = append(b, byte(v))
			}
		}
		blocks[name] = b
	}
	return blocks
}

// TestGoldenFrames pins the wire format three ways at once: the encoders,
// the committed testdata/*.bin files, and the hex dumps in docs/PROTOCOL.md
// must all agree byte for byte. Run with -update to regenerate testdata
// after an intentional (version-bumping) format change.
func TestGoldenFrames(t *testing.T) {
	frames := goldenFrames(t)
	spec := specHexBlocks(t)
	if len(spec) != len(frames) {
		t.Errorf("docs/PROTOCOL.md has %d golden blocks, want %d", len(spec), len(frames))
	}
	for name, want := range frames {
		path := filepath.Join("testdata", name+".bin")
		if *updateGolden {
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		disk, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to regenerate)", name, err)
		}
		if !bytes.Equal(disk, want) {
			t.Errorf("%s: testdata differs from encoder output\n disk: %x\n code: %x", name, disk, want)
		}
		doc, ok := spec[name]
		if !ok {
			t.Errorf("docs/PROTOCOL.md is missing a <!-- golden:%s --> block", name)
			continue
		}
		if !bytes.Equal(doc, want) {
			t.Errorf("%s: docs/PROTOCOL.md hex differs from encoder output\n  doc: %x\n code: %x", name, doc, want)
		}
	}
}

// TestGoldenFramesDecode re-reads the golden frames through the decoder and
// asserts every field the spec documents for them, so the prose stays honest
// about what the bytes mean, not just what they are.
func TestGoldenFramesDecode(t *testing.T) {
	readGolden := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join("testdata", name+".bin"))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	decode := func(wire []byte) []byte {
		var buf []byte
		payload, err := frame.Read(bufio.NewReader(bytes.NewReader(wire)), &buf, MaxFrameLen)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		return payload
	}

	if v, err := readHandshake(bytes.NewReader(readGolden("handshake"))); err != nil || v != Version {
		t.Errorf("handshake: version %d err %v, want %d", v, err, Version)
	}

	cur := frame.Cursor{Buf: decode(readGolden("batch3-request"))}
	if op, corr, n := cur.U8("opcode"), cur.U32("correlation ID"), cur.U32("count"); op != OpLocateBatch || corr != 7 || n != 3 {
		t.Errorf("request: op 0x%02x corr %d count %d", op, corr, n)
	}
	for i, want := range [][2]uint32{{1, 0}, {1, 7}, {9, 4}} {
		if o, blk := cur.U32("object"), cur.U32("block"); o != want[0] || blk != want[1] {
			t.Errorf("request entry %d: (%d,%d), want (%d,%d)", i, o, blk, want[0], want[1])
		}
	}
	if err := cur.Done("request"); err != nil {
		t.Error(err)
	}

	cur = frame.Cursor{Buf: decode(readGolden("batch3-response"))}
	if op, corr := cur.U8("opcode"), cur.U32("correlation ID"); op != OpLocateBatch|RespFlag || corr != 7 {
		t.Errorf("response: op 0x%02x corr %d", op, corr)
	}
	if e, fl, n := cur.U64("epoch"), cur.U8("flags"), cur.U32("count"); e != 5 || fl != FlagDegraded || n != 3 {
		t.Errorf("response: epoch %d flags 0x%02x count %d", e, fl, n)
	}
	for i, want := range []struct {
		disk   uint32
		status uint8
	}{{3, 0}, {6, EntryUnhealthy}, {0, ErrCodeUnknownObject}} {
		if d, st := cur.U32("disk"), cur.U8("status"); d != want.disk || st != want.status {
			t.Errorf("response entry %d: disk %d status 0x%02x, want %d 0x%02x",
				i, d, st, want.disk, want.status)
		}
	}
	if err := cur.Done("response"); err != nil {
		t.Error(err)
	}

	cur = frame.Cursor{Buf: decode(readGolden("error-unknown-opcode"))}
	if op, corr := cur.U8("opcode"), cur.U32("correlation ID"); op != OpError || corr != 9 {
		t.Errorf("error: op 0x%02x corr %d", op, corr)
	}
	if code, orig := cur.U8("error code"), cur.U8("original opcode"); code != ErrCodeUnknownOpcode || orig != 0x6F {
		t.Errorf("error: code %d orig 0x%02x", code, orig)
	}
	if msg := string(cur.Rest()); msg != "unknown opcode 0x6f" {
		t.Errorf("error message %q", msg)
	}
}

// TestGoldenErrorFrameLive sends the undefined opcode from the spec's worked
// example to a real server and asserts the reply on the wire is the golden
// error frame, byte for byte — the spec example is live server behavior, not
// hand-authored fiction.
func TestGoldenErrorFrameLive(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "error-unknown-opcode.bin"))
	if err != nil {
		t.Fatal(err)
	}
	b := newTestBackend(t, 4, 1, 10)
	nc := rawConn(t, startServer(t, b, nil))
	sendRaw(t, nc, appendHeader(nil, 0x6F, 9))
	got := make([]byte, len(want))
	if _, err := io.ReadFull(nc, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("server reply differs from golden frame\n  got: %x\n want: %x", got, want)
	}
}

// A compile-time-ish guard for the doc's worked-example arithmetic: both
// batch frames must be exactly the sizes the prose claims.
func TestGoldenFrameSizes(t *testing.T) {
	for name, want := range map[string]int{
		"handshake":            handshakeLen,
		"batch3-request":       41,
		"batch3-response":      41,
		"error-unknown-opcode": 34,
		"upgrade":              80 + 72,
	} {
		b, err := os.ReadFile(filepath.Join("testdata", name+".bin"))
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != want {
			t.Errorf("%s: %d bytes, want %d", name, len(b), want)
		}
	}
}
