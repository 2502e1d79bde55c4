// Package binproto is the gateway's binary lookup transport: a
// length-prefixed, CRC-32C-framed request/response protocol on a dedicated
// listener, built for the one question clients ask millions of times —
// "which disk holds block i of object m". The HTTP surface answers that in
// ~6µs of JSON and routing; the compiled REMAP chain underneath answers in
// ~79ns. This protocol closes the gap: persistent connections, pipelined
// requests matched by correlation ID, and a bulk opcode that carries many
// lookups per frame into LocatorSnapshot.LocateBatch, with encode and
// decode allocation-free on the steady path.
//
// Every response echoes the placement epoch of the snapshot that answered
// it, so a client interleaving lookups with a reorganization can detect
// that two answers came from different placement generations and
// re-validate whatever it cached. The wire format is specified normatively
// in docs/PROTOCOL.md — byte-accurate, with golden frames under
// testdata/binproto keeping spec and code from drifting. Frames travel in
// the shared envelope (internal/frame; see ARCHITECTURE.md "Framing"): a
// torn or corrupt frame cannot be resynchronized past, so the receiver
// drops the connection.
package binproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"scaddar/internal/cm"
)

// Protocol constants. See docs/PROTOCOL.md for the normative spec.
const (
	// Magic opens both handshake directions.
	Magic = "SBLK"
	// Version is the highest protocol version this implementation speaks.
	// The handshake negotiates down: a server that does not speak the
	// client's requested version answers with its own highest and closes.
	Version = 1

	handshakeLen = 5 // magic + version byte

	// MaxFrameLen bounds a frame's declared payload length. A peer
	// announcing more is hostile or corrupt; the connection is dropped
	// before any payload is read.
	MaxFrameLen = 1 << 20
	// MaxBatch bounds the lookup count in one OpLocateBatch frame.
	// Larger batches get ErrCodeTooLarge. 8192 lookups fit comfortably
	// under MaxFrameLen in both directions.
	MaxBatch = 8192
	// maxPingBody bounds the opaque payload OpPing echoes.
	maxPingBody = 256
)

// The HTTP upgrade (docs/PROTOCOL.md §1.1).
const (
	// UpgradePath is the gateway route that hands its connection over.
	UpgradePath = "/v1/bin"
	// UpgradeToken is the protocol name in the Upgrade header, both ways.
	UpgradeToken = "sblk"
	// UpgradeReply is the server's whole answer to an upgrade it accepts.
	UpgradeReply = "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + UpgradeToken + "\r\n\r\n"
)

// AppendUpgradeRequest appends the client's upgrade request to a gateway
// mounted under prefix ("" at the root) and addressed as host.
func AppendUpgradeRequest(dst []byte, prefix, host string) []byte {
	dst = append(append(dst, "GET "...), prefix...)
	dst = append(append(dst, UpgradePath+" HTTP/1.1\r\nHost: "...), host...)
	return append(dst, "\r\nConnection: Upgrade\r\nUpgrade: "+UpgradeToken+"\r\n\r\n"...)
}

// Request opcodes. A response carries the request's opcode with RespFlag
// set; whole-request failures come back as OpError instead.
const (
	// OpLocate resolves one block: body is u32 object, u32 block index.
	OpLocate uint8 = 0x01
	// OpLocateBatch resolves many blocks in one frame: body is u32 count
	// followed by count pairs of u32 object, u32 block index.
	OpLocateBatch uint8 = 0x02
	// OpEpoch fetches the current placement epoch and snapshot shape
	// without resolving any block. Empty body.
	OpEpoch uint8 = 0x03
	// OpPing echoes its opaque body (at most 256 bytes) for liveness and
	// RTT measurement.
	OpPing uint8 = 0x04
	// OpDrain asks the server to finish the pipelined requests already
	// received on this connection, acknowledge, and close. Empty body.
	OpDrain uint8 = 0x05

	// RespFlag marks a payload as a response: response opcode =
	// request opcode | RespFlag.
	RespFlag uint8 = 0x80
	// OpError is the typed error response frame: body is u8 error code,
	// u8 original request opcode, then a human-readable message.
	OpError uint8 = 0xFF
)

// Wire error codes carried by OpError frames and by per-entry status bytes
// in OpLocateBatch responses. Codes 3-6 map one-to-one onto the cm sentinel
// errors a lookup surface can return; CodeForError and ErrorFromCode are
// the two directions of that mapping.
const (
	// ErrCodeUnknownOpcode: the request opcode is not defined at the
	// negotiated version. The connection stays open.
	ErrCodeUnknownOpcode uint8 = 1
	// ErrCodeMalformed: the frame passed CRC but its body does not parse
	// (truncated fields, trailing bytes, over-limit ping). The connection
	// stays open — the frame boundary was still sound.
	ErrCodeMalformed uint8 = 2
	// ErrCodeUnknownObject maps cm.ErrUnknownObject.
	ErrCodeUnknownObject uint8 = 3
	// ErrCodeOutOfRange maps cm.ErrBlockOutOfRange.
	ErrCodeOutOfRange uint8 = 4
	// ErrCodeBusy maps cm.ErrBusy.
	ErrCodeBusy uint8 = 5
	// ErrCodeEpochFenced maps cm.ErrEpochFenced.
	ErrCodeEpochFenced uint8 = 6
	// ErrCodeDraining: the server is shutting down and no longer answers
	// lookups on this connection.
	ErrCodeDraining uint8 = 7
	// ErrCodeTooLarge: a batch declared more than MaxBatch lookups.
	ErrCodeTooLarge uint8 = 8
	// ErrCodeInternal: the lookup failed for a reason that is the
	// server's fault (locator misconfiguration), never the request's.
	ErrCodeInternal uint8 = 9
)

// Snapshot flag bits carried in RespLocate, RespLocateBatch, and RespEpoch.
const (
	// FlagReorganizing: a migration drain was in flight in the answering
	// snapshot; locations may change as moves execute.
	FlagReorganizing uint8 = 1 << 0
	// FlagDegraded: at least one disk was failed or rebuilding.
	FlagDegraded uint8 = 1 << 1
	// FlagUnhealthyDisk (RespLocate only): the disk named in this
	// response was not healthy at snapshot time.
	FlagUnhealthyDisk uint8 = 1 << 2
)

// EntryUnhealthy is OR-ed into a batch entry's status byte when the entry
// resolved (low bits zero) but its home disk was not healthy at snapshot
// time. The low 7 bits remain the entry's error code, 0 on success.
const EntryUnhealthy uint8 = 0x80

// ErrDraining is returned by a client whose request was refused with
// ErrCodeDraining.
var ErrDraining = errors.New("binproto: server draining")

// ErrTooLarge is returned for batches over MaxBatch, locally or by the
// server.
var ErrTooLarge = errors.New("binproto: batch too large")

// errMalformed is the client-side decode failure for a response body.
var errMalformed = errors.New("binproto: malformed frame")

// CodeForError maps a lookup error to its wire error code. Unrecognized
// errors map to ErrCodeInternal.
func CodeForError(err error) uint8 {
	switch {
	case errors.Is(err, cm.ErrUnknownObject):
		return ErrCodeUnknownObject
	case errors.Is(err, cm.ErrBlockOutOfRange):
		return ErrCodeOutOfRange
	case errors.Is(err, cm.ErrBusy):
		return ErrCodeBusy
	case errors.Is(err, cm.ErrEpochFenced):
		return ErrCodeEpochFenced
	default:
		return ErrCodeInternal
	}
}

// ErrorFromCode is the inverse of CodeForError: it maps a wire error code
// back to the typed sentinel a local lookup would have returned, so
// errors.Is works identically against local and remote lookups. The wire
// message is included verbatim.
func ErrorFromCode(code uint8, msg string) error {
	switch code {
	case ErrCodeUnknownObject:
		return fmt.Errorf("%w: %s", cm.ErrUnknownObject, msg)
	case ErrCodeOutOfRange:
		return fmt.Errorf("%w: %s", cm.ErrBlockOutOfRange, msg)
	case ErrCodeBusy:
		return fmt.Errorf("%w: %s", cm.ErrBusy, msg)
	case ErrCodeEpochFenced:
		return fmt.Errorf("%w: %s", cm.ErrEpochFenced, msg)
	case ErrCodeDraining:
		return fmt.Errorf("%w: %s", ErrDraining, msg)
	case ErrCodeTooLarge:
		return fmt.Errorf("%w: %s", ErrTooLarge, msg)
	default:
		return fmt.Errorf("binproto: server error %d: %s", code, msg)
	}
}

// entryStatusForLocate maps a cm batch status code to the wire error code
// used in a batch entry's status byte.
func entryStatusForLocate(code uint8) uint8 {
	switch code {
	case cm.LocateOK:
		return 0
	case cm.LocateUnknownObject:
		return ErrCodeUnknownObject
	case cm.LocateOutOfRange:
		return ErrCodeOutOfRange
	default:
		return ErrCodeInternal
	}
}

// writeHandshake sends one handshake half: magic plus a version byte.
func writeHandshake(w io.Writer, version uint8) error {
	var buf [handshakeLen]byte
	copy(buf[:], Magic)
	buf[4] = version
	_, err := w.Write(buf[:])
	return err
}

// readHandshake reads and validates one handshake half, returning the
// peer's version byte.
func readHandshake(r io.Reader) (uint8, error) {
	var buf [handshakeLen]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, fmt.Errorf("binproto: handshake: %w", err)
	}
	if string(buf[:4]) != Magic {
		return 0, fmt.Errorf("binproto: handshake lacks magic %q", Magic)
	}
	return buf[4], nil
}

// handshake is the client's half: send ours, insist the server's is equal.
func handshake(w io.Writer, r io.Reader) error {
	if err := writeHandshake(w, Version); err != nil {
		return err
	}
	ver, err := readHandshake(r)
	if err == nil && ver != Version {
		err = fmt.Errorf("binproto: server speaks version %d, want %d", ver, Version)
	}
	return err
}

// appendHeader starts a request or response payload: opcode then u32 LE
// correlation ID.
func appendHeader(dst []byte, op uint8, corr uint32) []byte {
	dst = append(dst, op)
	return binary.LittleEndian.AppendUint32(dst, corr)
}

// appendLocate renders an OpLocate request body.
func appendLocate(dst []byte, object, index uint32) []byte {
	return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(dst, object), index)
}

// appendError renders an OpError payload.
func appendError(dst []byte, corr uint32, code, origOp uint8, msg string) []byte {
	dst = appendHeader(dst, OpError, corr)
	dst = append(dst, code, origOp)
	return append(dst, msg...)
}
