package dataplane

import (
	"io"
	"sync/atomic"

	"scaddar/internal/bufpool"
)

// This file is the per-session delivery buffer between the round driver and
// a streaming HTTP client. The owner goroutine offers exactly the chunks
// the round scheduler served; the client's connection handler drains them
// at its own pace. The buffer is bounded and the offer never blocks: a slow
// client misses its deadline (the chunk is dropped and counted as a
// hiccup), and enough *consecutive* misses evict the session — backpressure
// protects the round, the client never stalls it.

// Chunk is one delivered block: its index within the object and its
// payload. The payload carries one buffer reference; whoever consumes the
// chunk (the drain loop, or the cleanup path when the session dies with
// chunks still buffered) must release it exactly once.
type Chunk struct {
	// Index is the block index within the object.
	Index int
	// Payload is the block payload and its pooled backing buffer.
	Payload bufpool.Payload
}

// SessionBufferConfig bounds a session's delivery buffer.
type SessionBufferConfig struct {
	// Buffer is the chunk capacity of the per-session buffer. Zero means 4.
	Buffer int
	// EvictAfter is how many consecutive deadline misses evict the
	// session. Zero means 8.
	EvictAfter int
}

// withDefaults fills unset fields.
func (c SessionBufferConfig) withDefaults() SessionBufferConfig {
	if c.Buffer <= 0 {
		c.Buffer = 4
	}
	if c.EvictAfter <= 0 {
		c.EvictAfter = 8
	}
	return c
}

// Session is one streaming session's bounded chunk buffer. Offer and Close
// are called only by the owner (round driver) goroutine; Chunks is drained
// by the session's connection handler; the counters are safe to read from
// anywhere.
type Session struct {
	stream     int
	object     int
	blockBytes int64
	cfg        SessionBufferConfig

	ch     chan Chunk
	reason atomic.Int32 // CloseReason, valid once closed is true
	closed atomic.Bool

	consecMisses int // owner-only
	misses       atomic.Uint64
	delivered    atomic.Uint64

	hdr [DataHeaderMax]byte // consumer-only: WriteBuffered's header scratch
}

// NewSession creates the buffer for one streaming session.
func NewSession(stream, object int, blockBytes int64, cfg SessionBufferConfig) *Session {
	cfg = cfg.withDefaults()
	return &Session{
		stream:     stream,
		object:     object,
		blockBytes: blockBytes,
		cfg:        cfg,
		ch:         make(chan Chunk, cfg.Buffer),
	}
}

// Stream returns the session's stream ID.
func (s *Session) Stream() int { return s.stream }

// Object returns the object the session plays.
func (s *Session) Object() int { return s.object }

// BlockBytes returns the object's block size.
func (s *Session) BlockBytes() int64 { return s.blockBytes }

// Chunks is the channel the connection handler drains. It is closed when
// the session ends; Reason then says why.
func (s *Session) Chunks() <-chan Chunk { return s.ch }

// Offer hands the round's chunk to the session without blocking. It
// returns (delivered, evict): delivered is false when the buffer was full
// (a deadline miss), and evict turns true once the consecutive-miss limit
// is reached — the caller must stop the stream and Close the session.
// Owner goroutine only.
func (s *Session) Offer(c Chunk) (delivered, evict bool) {
	if s.closed.Load() {
		return false, false
	}
	select {
	case s.ch <- c:
		s.consecMisses = 0
		s.delivered.Add(1)
		return true, false
	default:
		s.consecMisses++
		s.misses.Add(1)
		return false, s.consecMisses >= s.cfg.EvictAfter
	}
}

// Close ends the session with the given reason and closes the chunk
// channel. Owner goroutine only; idempotent.
func (s *Session) Close(reason CloseReason) {
	if s.closed.Swap(true) {
		return
	}
	s.reason.Store(int32(reason))
	close(s.ch)
}

// Closed reports whether the session has ended.
func (s *Session) Closed() bool { return s.closed.Load() }

// Reason returns the close reason; meaningful only after Closed.
func (s *Session) Reason() CloseReason { return CloseReason(s.reason.Load()) }

// Buffered returns the number of chunks waiting in the buffer.
func (s *Session) Buffered() int { return len(s.ch) }

// WriteBuffered is the consumer's emitter: given one receive from Chunks —
// c, and open false once the channel has closed — it writes c and every
// chunk already buffered behind it to w as data frames, then the end frame
// if the channel closed behind them, and returns the bytes written and
// whether the end frame was among them. Payloads go out by reference: a
// frame is its header, built in the session's own small scratch, and then
// the pooled block bytes themselves, released as soon as that Write returns
// (an io.Writer may not retain them), written or not. It stops at the first
// write error with nothing in hand; what is still in the channel is
// ReleaseBuffered's. The caller flushes once per call. Consumer goroutine
// only.
func (s *Session) WriteBuffered(w io.Writer, c Chunk, open bool) (n int, end bool, err error) {
	var k int
	for open {
		k, err = w.Write(AppendDataHeader(s.hdr[:0], c.Index, c.Payload.Data))
		n += k
		if err == nil {
			k, err = w.Write(c.Payload.Data)
			n += k
		}
		c.Payload.Release()
		if err != nil {
			return n, false, err
		}
		select {
		case c, open = <-s.ch:
		default:
			return n, false, nil
		}
	}
	k, err = w.Write(AppendEndFrame(s.hdr[:0], s.Reason()))
	return n + k, err == nil, err
}

// ReleaseBuffered drains and releases every chunk still sitting in the
// buffer without delivering it. The consumer calls it after detaching (so
// no new offers can land) on every exit path — disconnect, write error,
// eviction — to return abandoned payload references to the pool.
func (s *Session) ReleaseBuffered() {
	for {
		select {
		case c, ok := <-s.ch:
			if !ok {
				return
			}
			c.Payload.Release()
		default:
			return
		}
	}
}

// Misses returns the total deadline misses (dropped chunks).
func (s *Session) Misses() uint64 { return s.misses.Load() }

// Delivered returns the total chunks buffered for the client.
func (s *Session) Delivered() uint64 { return s.delivered.Load() }
