package binproto

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"sync"

	"scaddar/internal/frame"
)

// Location is one OpLocate answer as SyncConn reports it. A lookup the
// server refused is an answer too — Code and Msg set, the connection good.
type Location struct {
	Disk                  int    // logical disk holding the block
	Epoch                 uint64 // placement epoch of the answering snapshot
	Healthy, Reorganizing bool   // the disk's health; FlagReorganizing
	Code                  uint8  // zero, or the error code of a refusal
	Msg                   string // the refusal's message, verbatim
}

// readReplies pools the scratch WriteReadReply builds a body in; the longest
// (three ten-digit numbers, two "false") is 96 bytes: none grows.
var readReplies = sync.Pool{New: func() any { b := make([]byte, 0, 128); return &b }}

// WriteReadReply writes the JSON body of an answered block read — GET
// /v1/objects/{object}/blocks/{block} resolved to loc — in one Write. It is
// the reply's only encoder: the gateway's handler and the cluster router,
// which answers in a shard's stead, both call it, so the two cannot differ by
// a byte.
func WriteReadReply(w io.Writer, object, block int, loc Location) error {
	bp := readReplies.Get().(*[]byte)
	b := strconv.AppendInt(append((*bp)[:0], `{"object":`...), int64(object), 10)
	b = strconv.AppendInt(append(b, `,"block":`...), int64(block), 10)
	b = strconv.AppendInt(append(b, `,"disk":`...), int64(loc.Disk), 10)
	b = strconv.AppendBool(append(b, `,"healthy":`...), loc.Healthy)
	b = strconv.AppendBool(append(b, `,"reorganizing":`...), loc.Reorganizing)
	_, err := w.Write(append(b, "}\n"...))
	*bp = b[:0]
	readReplies.Put(bp)
	return err
}

// SyncConn is the synchronous client: one request at a time, written and
// read back on the calling goroutine — no reader goroutine, no timer, no
// hand-off, which is what a caller with a goroutine per request and a
// deadline per connection (the cluster router) wants in place of the
// pipelined Client. Not safe for concurrent use; the caller arms deadlines on
// the connection underneath and closes it after any error.
type SyncConn struct {
	w       io.Writer
	br      *bufio.Reader
	out, in []byte
	corr    uint32
}

// NewSyncConn performs the version handshake over a connection written
// through w and read through br.
func NewSyncConn(w io.Writer, br *bufio.Reader) (*SyncConn, error) {
	if err := handshake(w, br); err != nil {
		return nil, err
	}
	return &SyncConn{w: w, br: br}, nil
}

// Locate asks for one block in one write and reads the reply frame. replied
// reports whether any byte of a reply arrived: if not, the server never
// answered and the request may be replayed elsewhere. An error is a dead or
// lying connection: I/O, framing, a reply that is not this request's.
func (c *SyncConn) Locate(object, index uint32) (loc Location, replied bool, err error) {
	c.corr++
	b := appendLocate(appendHeader(frame.Begin(c.out[:0]), OpLocate, c.corr), object, index)
	c.out = b[:0]
	if _, err = c.w.Write(frame.Finish(b, 0)); err == nil {
		_, err = c.br.Peek(1)
	}
	if err != nil {
		return Location{}, false, err
	}
	payload, err := frame.Read(c.br, &c.in, MaxFrameLen)
	if err != nil {
		return Location{}, true, err
	}
	cur := frame.Cursor{Buf: payload}
	op, corr := cur.U8("opcode"), cur.U32("correlation ID")
	ca := call{op: OpLocate, bad: !cur.OK() || corr != c.corr}
	if !ca.bad {
		decodeInto(&ca, op, &cur)
	}
	if ca.bad {
		return Location{}, true, fmt.Errorf("%w: reply 0x%02x #%d to locate #%d", errMalformed, op, corr, c.corr)
	}
	return Location{Disk: ca.disk, Epoch: ca.ep.Epoch, Healthy: ca.n == 1,
		Reorganizing: ca.ep.Reorganizing, Code: ca.errc, Msg: ca.msg}, true, nil
}
