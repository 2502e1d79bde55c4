package dataplane

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"

	"scaddar/internal/frame"
)

// This file is the chunk wire framing a streaming session speaks over HTTP:
// the shared envelope (internal/frame; see ARCHITECTURE.md "Framing"), so a
// client can verify every chunk independently of the transport. A stream is
// a sequence of data frames (block index + payload) terminated by one end
// frame carrying the close reason.

// Frame payload tags.
const (
	frameData = 0
	frameEnd  = 1
)

// CloseReason says why a streaming session ended.
type CloseReason byte

// Close reasons, carried in the stream's end frame.
const (
	// CloseDone: the stream played to its last block.
	CloseDone CloseReason = iota
	// CloseStopped: the stream was stopped by a control operation.
	CloseStopped
	// CloseEvicted: the client fell too far behind the round pacer and was
	// evicted to protect the round (backpressure limit).
	CloseEvicted
)

// String names the close reason.
func (r CloseReason) String() string {
	switch r {
	case CloseDone:
		return "done"
	case CloseStopped:
		return "stopped"
	case CloseEvicted:
		return "evicted"
	default:
		return fmt.Sprintf("reason(%d)", byte(r))
	}
}

// ErrFrameCorrupt is returned when a received frame fails its structural or
// CRC checks, or when the stream stops inside a frame; the read error that
// stopped it, if any, is wrapped alongside.
var ErrFrameCorrupt = errors.New("dataplane: corrupt stream frame")

// DataHeaderMax bounds what AppendDataHeader appends: the envelope header,
// the tag and the uvarint block index.
const DataHeaderMax = frame.HeaderLen + 1 + binary.MaxVarintLen64

// AppendDataHeader appends everything of a chunk frame that precedes the
// block bytes, sealed over data without copying it: the header followed by
// data itself is the frame AppendDataFrame builds. It is how a session
// streams a pooled payload by reference (Session.WriteBuffered).
func AppendDataHeader(dst []byte, index int, data []byte) []byte {
	start := len(dst)
	dst = append(frame.Begin(dst), frameData)
	dst = binary.AppendUvarint(dst, uint64(index))
	return frame.FinishSplit(dst, start, data)
}

// AppendDataFrame appends one chunk frame (block index + payload) to dst
// and returns the extended slice.
func AppendDataFrame(dst []byte, index int, data []byte) []byte {
	return append(AppendDataHeader(dst, index, data), data...)
}

// AppendEndFrame appends the terminal frame carrying the close reason.
func AppendEndFrame(dst []byte, reason CloseReason) []byte {
	start := len(dst)
	return frame.Finish(append(frame.Begin(dst), frameEnd, byte(reason)), start)
}

// Frame is one decoded stream frame.
type Frame struct {
	// End marks the terminal frame; Reason is set and Index/Data are not.
	End bool
	// Reason is the close reason of an end frame.
	Reason CloseReason
	// Index is the block index of a data frame.
	Index int
	// Data is the block payload of a data frame.
	Data []byte
}

// ReadFrame reads and verifies one frame from the stream. It returns
// io.EOF (possibly wrapped) if the stream closes cleanly between frames.
// Each call allocates the frame's payload; decoders on a hot loop should
// use ReadFrameInto with a reused scratch buffer instead.
func ReadFrame(br *bufio.Reader) (Frame, error) {
	return ReadFrameInto(br, nil)
}

// ReadFrameInto is ReadFrame with caller-owned scratch: the frame payload
// is decoded into scratch (grown only when a frame exceeds its capacity),
// so a steady-state decode loop performs no allocation. The returned
// Frame's Data aliases scratch and is valid only until the next call with
// the same buffer.
func ReadFrameInto(br *bufio.Reader, scratch []byte) (Frame, error) {
	payload, err := frame.Read(br, &scratch, maxPayloadRecord)
	if err != nil {
		if errors.Is(err, frame.ErrTorn) || errors.Is(err, frame.ErrCorrupt) {
			return Frame{}, fmt.Errorf("%w: %w", ErrFrameCorrupt, err)
		}
		return Frame{}, err // between frames: a clean close is a bare io.EOF
	}
	c := frame.Cursor{Buf: payload}
	switch tag := c.U8("tag"); tag {
	case frameData:
		f := Frame{Index: c.Int("block index"), Data: c.Rest()}
		if !c.OK() {
			return Frame{}, fmt.Errorf("%w: bad block index", ErrFrameCorrupt)
		}
		return f, nil
	case frameEnd:
		f := Frame{End: true, Reason: CloseReason(c.U8("close reason"))}
		if c.Done("end frame") != nil {
			return Frame{}, fmt.Errorf("%w: bad end frame", ErrFrameCorrupt)
		}
		return f, nil
	default:
		return Frame{}, fmt.Errorf("%w: unknown frame tag %d", ErrFrameCorrupt, tag)
	}
}
