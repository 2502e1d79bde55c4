package binproto

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"scaddar/internal/cm"
	"scaddar/internal/frame"
	"scaddar/internal/obs"
)

// rawConn dials and handshakes, returning the naked connection for tests
// that need to write hostile bytes.
func rawConn(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	if err := writeHandshake(nc, Version); err != nil {
		t.Fatal(err)
	}
	if _, err := readHandshake(nc); err != nil {
		t.Fatal(err)
	}
	return nc
}

// sendRaw frames a payload manually.
func sendRaw(t *testing.T, nc net.Conn, payload []byte) {
	t.Helper()
	bw := bufio.NewWriter(nc)
	if err := frame.Write(bw, payload, MaxFrameLen); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
}

// readRaw reads one response frame.
func readRaw(t *testing.T, nc net.Conn) []byte {
	t.Helper()
	var buf []byte
	payload, err := frame.Read(bufio.NewReader(nc), &buf, MaxFrameLen)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// expectClosed asserts the server hangs up.
func expectClosed(t *testing.T, nc net.Conn) {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	var one [1]byte
	if _, err := nc.Read(one[:]); err == nil {
		t.Fatal("connection still open, want server hangup")
	}
}

func TestUnknownOpcodeKeepsConnection(t *testing.T) {
	b := newTestBackend(t, 4, 1, 10)
	nc := rawConn(t, startServer(t, b, nil))
	sendRaw(t, nc, appendHeader(nil, 0x6F, 42))
	resp := readRaw(t, nc)
	cur := frame.Cursor{Buf: resp}
	if op, corr := cur.U8("opcode"), cur.U32("correlation ID"); op != OpError || corr != 42 {
		t.Fatalf("got op 0x%02x corr %d, want OpError corr 42", op, corr)
	}
	if code, orig := cur.U8("error code"), cur.U8("original opcode"); code != ErrCodeUnknownOpcode || orig != 0x6F {
		t.Fatalf("got code %d orig 0x%02x, want ErrCodeUnknownOpcode 0x6f", code, orig)
	}
	// The same connection still answers real requests.
	sendRaw(t, nc, appendHeader(nil, OpPing, 43))
	resp = readRaw(t, nc)
	if resp[0] != OpPing|RespFlag {
		t.Fatalf("ping after unknown opcode: got 0x%02x", resp[0])
	}
}

func TestMalformedBodyKeepsConnection(t *testing.T) {
	b := newTestBackend(t, 4, 1, 10)
	nc := rawConn(t, startServer(t, b, nil))
	// OpLocate with a truncated body (one u32 instead of two).
	sendRaw(t, nc, le.AppendUint32(appendHeader(nil, OpLocate, 7), 0))
	resp := readRaw(t, nc)
	cur := frame.Cursor{Buf: resp}
	if op, corr := cur.U8("opcode"), cur.U32("correlation ID"); op != OpError || corr != 7 {
		t.Fatalf("got op 0x%02x corr %d", op, corr)
	}
	if code := cur.U8("error code"); code != ErrCodeMalformed {
		t.Fatalf("got code %d, want ErrCodeMalformed", code)
	}
	// Trailing garbage after a valid body is malformed too.
	p := le.AppendUint32(le.AppendUint32(appendHeader(nil, OpLocate, 8), 0), 0)
	sendRaw(t, nc, append(p, 0xEE))
	resp = readRaw(t, nc)
	if resp[0] != OpError || resp[5] != ErrCodeMalformed {
		t.Fatalf("trailing bytes: got op 0x%02x code %d", resp[0], resp[5])
	}
	sendRaw(t, nc, appendHeader(nil, OpPing, 9))
	if resp = readRaw(t, nc); resp[0] != OpPing|RespFlag {
		t.Fatalf("ping after malformed: got 0x%02x", resp[0])
	}
}

// TestMalformedBatchBodies: the batch body is sized once against its count
// — count u32, then exactly count (object u32, block u32) pairs. Every other
// shape is answered with a typed error on a connection that stays usable.
func TestMalformedBatchBodies(t *testing.T) {
	b := newTestBackend(t, 4, 1, 10)
	nc := rawConn(t, startServer(t, b, nil))
	pair := func(p []byte) []byte { return le.AppendUint32(le.AppendUint32(p, 0), 3) }
	head := func(corr, count uint32) []byte { return le.AppendUint32(appendHeader(nil, OpLocateBatch, corr), count) }
	for name, req := range map[string][]byte{
		"no count":        appendHeader(nil, OpLocateBatch, 1),
		"half a count":    append(appendHeader(nil, OpLocateBatch, 2), 1, 0),
		"a pair short":    pair(head(3, 2)),
		"half a pair":     append(pair(head(4, 2)), 0, 0, 0, 0),
		"a pair too many": pair(pair(head(5, 1))),
		"a byte too many": append(pair(head(6, 1)), 0xEE),
		"pairs for none":  pair(head(7, 0)),
	} {
		sendRaw(t, nc, req)
		if resp := readRaw(t, nc); resp[0] != OpError || resp[5] != ErrCodeMalformed {
			t.Fatalf("%s: got op 0x%02x code %d, want a malformed-body error", name, resp[0], resp[5])
		}
	}
	sendRaw(t, nc, head(8, 0))
	if resp := readRaw(t, nc); resp[0] != OpLocateBatch|RespFlag || len(resp) != 5+8+1+4 {
		t.Fatalf("empty batch: got op 0x%02x and %d bytes, want a reply of no entries", resp[0], len(resp))
	}
	sendRaw(t, nc, pair(pair(head(9, 2))))
	if resp := readRaw(t, nc); resp[0] != OpLocateBatch|RespFlag || len(resp) != 5+8+1+4+2*5 {
		t.Fatalf("batch of two after the malformed ones: got op 0x%02x and %d bytes", resp[0], len(resp))
	}
}

func TestOversizedLengthPrefixDropsConnection(t *testing.T) {
	b := newTestBackend(t, 4, 1, 10)
	nc := rawConn(t, startServer(t, b, nil))
	var hdr [frame.HeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[:4], MaxFrameLen+1)
	if _, err := nc.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, nc)
}

func TestCorruptCRCDropsConnection(t *testing.T) {
	b := newTestBackend(t, 4, 1, 10)
	nc := rawConn(t, startServer(t, b, nil))
	payload := appendHeader(nil, OpPing, 1)
	var hdr [frame.HeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], frame.Checksum(payload)^0xDEADBEEF)
	if _, err := nc.Write(append(hdr[:], payload...)); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, nc)
}

func TestTornFrameDropsConnection(t *testing.T) {
	b := newTestBackend(t, 4, 1, 10)
	addr := startServer(t, b, func(s *Server) { s.idleTimeout = 200 * time.Millisecond })
	nc := rawConn(t, addr)
	// Declare 100 payload bytes, send 3, stop mid-frame: the idle deadline
	// tears the connection down instead of waiting forever.
	var hdr [frame.HeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[:4], 100)
	if _, err := nc.Write(append(hdr[:], 1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, nc)
}

func TestZeroLengthFrameDropsConnection(t *testing.T) {
	b := newTestBackend(t, 4, 1, 10)
	nc := rawConn(t, startServer(t, b, nil))
	var hdr [frame.HeaderLen]byte
	if _, err := nc.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, nc)
}

func TestSlowReaderEviction(t *testing.T) {
	b := newTestBackend(t, 4, 2, 200)
	var evictions *obs.Counter
	addr := startServer(t, b, func(s *Server) {
		evictions = s.m.slowEvictions
		s.writeTimeout = 100 * time.Millisecond
		s.writeBuffer = 4 << 10
	})
	nc := rawConn(t, addr)
	// Pipeline large batches without ever reading a reply. Replies overrun
	// the 4 KiB bounded buffer, the flush to our stalled socket hits the
	// write deadline, and the server evicts us.
	payload := le.AppendUint32(appendHeader(nil, OpLocateBatch, 1), 512)
	for i := 0; i < 512; i++ {
		payload = le.AppendUint32(payload, uint32(i%2))
		payload = le.AppendUint32(payload, uint32(i%200))
	}
	bw := bufio.NewWriter(nc)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if err := frame.Write(bw, payload, MaxFrameLen); err != nil {
			break // server hung up on us mid-write: eviction worked
		}
		if err := bw.Flush(); err != nil {
			break
		}
	}
	if time.Now().After(deadline) {
		t.Fatal("server kept absorbing replies from a reader that never reads")
	}
	waitUntil := time.Now().Add(5 * time.Second)
	for evictions.Value() == 0 && time.Now().Before(waitUntil) {
		time.Sleep(10 * time.Millisecond)
	}
	if evictions.Value() == 0 {
		t.Fatal("slow-reader eviction not recorded")
	}
}

func TestEpochChangeMidPipeline(t *testing.T) {
	// Two batches pipelined around a scale-up: each batch is answered from
	// one snapshot, so the epochs differ but neither batch mixes
	// generations.
	b := newTestBackend(t, 4, 2, 60)
	c := dialTest(t, startServer(t, b, nil))
	addrs := []cm.BlockAddr{{Object: 0, Index: 0}, {Object: 1, Index: 5}}
	out := make([]Result, 2)
	e0, err := c.LocateBatch(addrs, out)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.srv.ScaleUp(1); err != nil {
		t.Fatal(err)
	}
	b.publish(t)
	sn := b.snap.Load()
	e1, err := c.LocateBatch(addrs, out)
	if err != nil {
		t.Fatal(err)
	}
	if e0 == e1 {
		t.Fatal("epoch echo did not change across a scale-up")
	}
	if e1 != sn.Epoch() {
		t.Fatalf("second batch epoch %d, want %d", e1, sn.Epoch())
	}
	for i, a := range addrs {
		want, _ := sn.Locate(a.Object, a.Index)
		if out[i].Disk != want {
			t.Fatalf("entry %d: disk %d, new snapshot says %d", i, out[i].Disk, want)
		}
	}
}

// TestHandshakeGarbage makes sure a peer that is not speaking the protocol
// at all is rejected before any frame handling.
func TestHandshakeGarbage(t *testing.T) {
	b := newTestBackend(t, 4, 1, 10)
	addr := startServer(t, b, nil)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := io.WriteString(nc, "GET / HTTP/1.1\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, nc)
}
