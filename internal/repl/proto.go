// Package repl ships the leader's journal to follower replicas over TCP,
// so reads survive the leader: a follower bootstraps from the newest
// checkpoint, tails the durable journal, applies events through the same
// replay dispatch crash recovery uses, and serves block lookups from its
// own lock-free locator snapshot. Reads are epoch-fenced — a follower that
// knows the leader journaled a scaling operation it has not applied yet
// refuses lookups (cm.ErrEpochFenced) instead of answering from placement
// state the operation superseded — and report bounded staleness against a
// configured lag budget (cm.ErrStaleRead).
//
// The wire protocol is deliberately minimal: one TCP connection, client
// speaks first with a fixed-size handshake, then the leader streams frames
// in the shared envelope (internal/frame; see ARCHITECTURE.md "Framing")
// until the connection dies. A truncated or bit-flipped frame is detected
// at the follower, which drops the connection and resumes from its applied
// LSN.
//
//	client → leader: "SCRP" | version byte | uint64 LE fromLSN | 16-byte journal ID
//	leader → client: frame, frame, ...
//
// A frame payload's first byte is the frame type:
//
//	helloSnapshot: 16-byte journal ID, then uvarint ckptLSN, ckptEpoch,
//	               durableLSN, leaderEpoch, ckptLen, then ckptLen
//	               checkpoint-file bytes
//	helloResume:   16-byte journal ID, then uvarint resumeLSN, durableLSN,
//	               leaderEpoch
//	record:        uvarint LSN, then the raw event encoding
//	heartbeat:     uvarint durableLSN, durableEpoch
//
// fromLSN names the first LSN the follower still needs (applied+1); zero
// asks for a full bootstrap. The journal ID pins which journal those LSNs
// belong to: the follower sends the identity it bootstrapped from (zero
// before any bootstrap) and the leader only resumes when it matches its own
// store's identity AND the journal still holds fromLSN — otherwise it
// answers helloSnapshot, replacing the follower's state wholesale. LSNs are
// per-journal counters, so without the identity a follower of journal A
// reconnecting to a leader of journal B could be "resumed" at a position
// that lines up numerically and then splice B's records onto A's state.
// The leader likewise refuses to resume a follower claiming a position
// ahead of its own durable frontier (a leader restored from an older copy
// of the same journal): that too forces a snapshot. A mid-stream
// helloSnapshot is also sent if checkpoint pruning overtakes a slow
// follower. Only fsync-covered records are ever shipped; a follower can
// never apply an event the leader could still lose.
package repl

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"

	"scaddar/internal/frame"
)

// Protocol constants. The version byte is checked exactly: there is one
// version of this protocol until there are two.
const (
	protoMagic   = "SCRP"
	protoVersion = 1
	journalIDLen = 16
	handshakeLen = 4 + 1 + 8 + journalIDLen

	maxFrameLen = 64 << 20 // bound on a frame's payload; checkpoints dominate frame size
)

// journalID is the raw form of a store journal identity on the wire. The
// zero value means "no journal": what a follower sends before its first
// bootstrap.
type journalID [journalIDLen]byte

// parseJournalID decodes a store's hex identity (store.JournalID) into its
// wire form.
func parseJournalID(s string) (journalID, error) {
	var id journalID
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != journalIDLen {
		return id, fmt.Errorf("repl: malformed journal identity %q", s)
	}
	copy(id[:], raw)
	return id, nil
}

// Frame types.
const (
	frameHelloSnapshot = 1
	frameHelloResume   = 2
	frameRecord        = 3
	frameHeartbeat     = 4
)

// errBadFrame reports a frame whose payload failed structural validation
// (type, field bounds). The receiver treats it like a dead connection: drop
// and resume.
var errBadFrame = errors.New("repl: bad frame")

// encodeHandshake renders the client's opening bytes: the resume position
// plus the identity of the journal that position counts LSNs in.
func encodeHandshake(fromLSN uint64, id journalID) []byte {
	buf := make([]byte, 0, handshakeLen)
	buf = append(buf, protoMagic...)
	buf = append(buf, protoVersion)
	buf = binary.LittleEndian.AppendUint64(buf, fromLSN)
	return append(buf, id[:]...)
}

// readHandshake parses the client's opening bytes from the wire.
func readHandshake(r io.Reader) (fromLSN uint64, id journalID, err error) {
	var buf [handshakeLen]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, id, fmt.Errorf("repl: handshake: %w", err)
	}
	if string(buf[:4]) != protoMagic {
		return 0, id, fmt.Errorf("repl: handshake lacks magic %q", protoMagic)
	}
	if buf[4] != protoVersion {
		return 0, id, fmt.Errorf("repl: protocol version %d, want %d", buf[4], protoVersion)
	}
	copy(id[:], buf[13:])
	return binary.LittleEndian.Uint64(buf[5:13]), id, nil
}

// helloSnapshot carries a full bootstrap: the leader's journal identity,
// checkpoint state, and its durable frontier at send time.
type helloSnapshot struct {
	journal     journalID
	ckptLSN     uint64
	ckptEpoch   uint64
	durableLSN  uint64
	leaderEpoch uint64
	ckptData    []byte
}

func encodeHelloSnapshot(h helloSnapshot) []byte {
	p := []byte{frameHelloSnapshot}
	p = append(p, h.journal[:]...)
	p = binary.AppendUvarint(p, h.ckptLSN)
	p = binary.AppendUvarint(p, h.ckptEpoch)
	p = binary.AppendUvarint(p, h.durableLSN)
	p = binary.AppendUvarint(p, h.leaderEpoch)
	p = binary.AppendUvarint(p, uint64(len(h.ckptData)))
	return append(p, h.ckptData...)
}

// helloResume tells the follower the leader will stream from resumeLSN. It
// echoes the leader's journal identity so the follower can verify the
// resume really is against the journal it applied.
type helloResume struct {
	journal     journalID
	resumeLSN   uint64
	durableLSN  uint64
	leaderEpoch uint64
}

func encodeHelloResume(h helloResume) []byte {
	p := []byte{frameHelloResume}
	p = append(p, h.journal[:]...)
	p = binary.AppendUvarint(p, h.resumeLSN)
	p = binary.AppendUvarint(p, h.durableLSN)
	return binary.AppendUvarint(p, h.leaderEpoch)
}

// encodeRecord frames one journal record for the wire.
func encodeRecord(lsn uint64, event []byte) []byte {
	p := []byte{frameRecord}
	p = binary.AppendUvarint(p, lsn)
	return append(p, event...)
}

// heartbeat advertises the leader's durable frontier so an idle follower
// can measure lag and detect epoch divergence without traffic.
type heartbeat struct {
	durableLSN   uint64
	durableEpoch uint64
}

func encodeHeartbeat(h heartbeat) []byte {
	p := []byte{frameHeartbeat}
	p = binary.AppendUvarint(p, h.durableLSN)
	return binary.AppendUvarint(p, h.durableEpoch)
}

// The decoders below parse the payload of a frame whose type byte, p[0],
// the caller dispatched on; done turns whatever the cursor could not read,
// or left unread, into errBadFrame.
func done(c *frame.Cursor, payload string) error {
	if err := c.Done(payload); err != nil {
		return fmt.Errorf("%w: %v", errBadFrame, err)
	}
	return nil
}

func decodeHelloSnapshot(p []byte) (h helloSnapshot, err error) {
	c := frame.Cursor{Buf: p}
	c.U8("frame type")
	copy(h.journal[:], c.Bytes(journalIDLen, "journal identity"))
	h.ckptLSN = c.Uvarint("checkpoint LSN")
	h.ckptEpoch = c.Uvarint("checkpoint epoch")
	h.durableLSN = c.Uvarint("durable LSN")
	h.leaderEpoch = c.Uvarint("leader epoch")
	h.ckptData = c.Bytes(c.Count(1, "checkpoint length"), "checkpoint")
	return h, done(&c, "hello-snapshot")
}

func decodeHelloResume(p []byte) (h helloResume, err error) {
	c := frame.Cursor{Buf: p}
	c.U8("frame type")
	copy(h.journal[:], c.Bytes(journalIDLen, "journal identity"))
	h.resumeLSN = c.Uvarint("resume LSN")
	h.durableLSN = c.Uvarint("durable LSN")
	h.leaderEpoch = c.Uvarint("leader epoch")
	return h, done(&c, "hello-resume")
}

func decodeRecord(p []byte) (lsn uint64, event []byte, err error) {
	c := frame.Cursor{Buf: p}
	c.U8("frame type")
	lsn, event = c.Uvarint("record LSN"), c.Rest()
	return lsn, event, done(&c, "record")
}

func decodeHeartbeat(p []byte) (h heartbeat, err error) {
	c := frame.Cursor{Buf: p}
	c.U8("frame type")
	h.durableLSN, h.durableEpoch = c.Uvarint("durable LSN"), c.Uvarint("durable epoch")
	return h, done(&c, "heartbeat")
}
