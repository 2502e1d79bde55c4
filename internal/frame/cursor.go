package frame

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Cursor reads what is inside the envelope: the fields of one payload, in
// order. A read that cannot be satisfied — the input ends inside the field,
// the value does not fit the field's type, a declared length is more than
// the remaining bytes can hold — fails the cursor: the field's name is
// remembered, and that read and every later one return zero, whatever bytes
// follow. A decoder is therefore its fields in a row and one question at the
// end:
//
//	c := frame.Cursor{Buf: payload}
//	h := heartbeat{lsn: c.Uvarint("durable LSN"), epoch: c.Uvarint("durable epoch")}
//	return h, c.Done("heartbeat")
//
// Reading never allocates, and the fixed-width readers are small enough to
// inline (binproto's batch decode runs two per answered address).
type Cursor struct {
	// Buf is the payload. The cursor never reads outside it.
	Buf []byte

	off    int    // next unread byte; len(Buf) once a read has failed
	failed bool   // a read has failed
	field  string // the first field that could not be read
}

// maxInt bounds Int64 and Int on every platform: an accepted value survives
// int64 and time.Duration with a bit of headroom for the arithmetic callers
// do on it.
const maxInt = 1<<62 - 1

// fail records the first field that could not be read and puts the cursor at
// the end of Buf, so every later read fails on its own length check.
func (c *Cursor) fail(what string) {
	if !c.failed {
		c.failed, c.field = true, what
	}
	c.off = len(c.Buf)
}

// U8 reads one byte.
func (c *Cursor) U8(what string) uint8 {
	if len(c.Buf)-c.off < 1 {
		c.fail(what)
		return 0
	}
	v := c.Buf[c.off]
	c.off++
	return v
}

// U32 reads a fixed-width little-endian uint32.
func (c *Cursor) U32(what string) uint32 {
	if len(c.Buf)-c.off < 4 {
		c.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint32(c.Buf[c.off:])
	c.off += 4
	return v
}

// U64 reads a fixed-width little-endian uint64.
func (c *Cursor) U64(what string) uint64 {
	if len(c.Buf)-c.off < 8 {
		c.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(c.Buf[c.off:])
	c.off += 8
	return v
}

// Float64 reads a fixed-width little-endian IEEE 754 double and refuses a
// NaN: no persisted field is legitimately NaN, and NaN != NaN breaks the
// comparisons made downstream.
func (c *Cursor) Float64(what string) float64 {
	v := math.Float64frombits(c.U64(what))
	if math.IsNaN(v) {
		c.fail(what)
		return 0
	}
	return v
}

// Uvarint reads an unsigned varint (encoding/binary's), refusing one that is
// cut short or overflows 64 bits.
func (c *Cursor) Uvarint(what string) uint64 {
	v, n := binary.Uvarint(c.Buf[c.off:])
	if n <= 0 {
		c.fail(what)
		return 0
	}
	c.off += n
	return v
}

// Varint reads a signed (zigzag) varint.
func (c *Cursor) Varint(what string) int64 {
	v, n := binary.Varint(c.Buf[c.off:])
	if n <= 0 {
		c.fail(what)
		return 0
	}
	c.off += n
	return v
}

// Int64 reads an unsigned varint of at most 1<<62−1: the one bound every
// index, count, size and duration read off a disk or a socket is held to
// before it is narrowed to a signed type.
func (c *Cursor) Int64(what string) int64 {
	v := c.Uvarint(what)
	if v > maxInt {
		c.fail(what)
		return 0
	}
	return int64(v)
}

// Int is Int64 for a value that must also fit an int, which is the narrower
// of the two where int has 32 bits.
func (c *Cursor) Int(what string) int {
	v := c.Int64(what)
	if int64(int(v)) != v {
		c.fail(what)
		return 0
	}
	return int(v)
}

// Count reads the length of a list whose elements take at least minBytes
// (≥ 1) each, and refuses it unless the bytes that remain could hold that
// many. It is the one forged-length rule: whatever a decoder sizes or loops
// by a declared length has passed through here first, so hostile input
// cannot make it allocate more than a small multiple of its own size.
func (c *Cursor) Count(minBytes int, what string) int {
	n := c.Uvarint(what)
	if n > uint64(len(c.Buf)-c.off)/uint64(minBytes) {
		c.fail(what)
		return 0
	}
	return int(n)
}

// Bytes reads the next n bytes; the result aliases Buf.
func (c *Cursor) Bytes(n int, what string) []byte {
	if n < 0 || len(c.Buf)-c.off < n {
		c.fail(what)
		return nil
	}
	b := c.Buf[c.off : c.off+n]
	c.off += n
	return b
}

// Rest reads everything that is left; the result aliases Buf.
func (c *Cursor) Rest() []byte {
	b := c.Buf[c.off:]
	c.off = len(c.Buf)
	return b
}

// OK reports whether every read so far succeeded. A decoder asks it midway
// only to word its own complaint about a value (an unknown kind, a wrong
// version) — a failed read has returned zero, and zero is not what the input
// said.
func (c *Cursor) OK() bool { return !c.failed }

// Done is the question at the end: nil when every read succeeded and the
// payload, named by payload for the message, was consumed to its last byte.
func (c *Cursor) Done(payload string) error {
	switch {
	case c.failed:
		return fmt.Errorf("%s: %s is cut short or out of range", payload, c.field)
	case c.off != len(c.Buf):
		return fmt.Errorf("%s: %d trailing bytes", payload, len(c.Buf)-c.off)
	}
	return nil
}
