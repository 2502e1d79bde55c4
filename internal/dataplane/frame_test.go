package dataplane

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/iotest"

	"scaddar/internal/bufpool"
	"scaddar/internal/frame"
)

func TestFrameRoundTrip(t *testing.T) {
	var wire []byte
	for i := 0; i < 5; i++ {
		wire = AppendDataFrame(wire, i, SeededContent(42, uint64(i), 100))
	}
	wire = AppendEndFrame(wire, CloseEvicted)
	br := bufio.NewReader(bytes.NewReader(wire))
	for i := 0; i < 5; i++ {
		f, err := ReadFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.End || f.Index != i || !VerifySeededContent(f.Data, 42, uint64(i)) {
			t.Fatalf("frame %d decoded wrong: %+v", i, f)
		}
	}
	f, err := ReadFrame(br)
	if err != nil || !f.End || f.Reason != CloseEvicted {
		t.Fatalf("end frame = %+v, %v", f, err)
	}
	if _, err := ReadFrame(br); !errors.Is(err, io.EOF) {
		t.Fatalf("after end frame: %v, want EOF", err)
	}
}

// TestDataHeaderThenDataIsDataFrame pins the by-reference emitter's wire
// identity: the header part followed by the block bytes themselves is the
// frame the joined encoder seals — the envelope computed over the copied
// payload, as AppendDataFrame did before it was given in parts — and
// AppendDataFrame is still that frame, behind earlier bytes in dst too.
func TestDataHeaderThenDataIsDataFrame(t *testing.T) {
	for _, size := range []int{0, 1, 4096, 65536} {
		for _, index := range []int{0, 127, 128, 1 << 31} {
			data := SeededContent(7, uint64(index), int64(size))
			joined := binary.AppendUvarint(append(frame.Begin(nil), frameData), uint64(index))
			joined = frame.Finish(append(joined, data...), 0)

			hdr := AppendDataHeader(nil, index, data)
			if len(hdr) > DataHeaderMax {
				t.Fatalf("size %d index %d: header of %d bytes, DataHeaderMax is %d", size, index, len(hdr), DataHeaderMax)
			}
			if got := append(hdr, data...); !bytes.Equal(got, joined) {
				t.Fatalf("size %d index %d: header ‖ data differs from the joined frame", size, index)
			}
			prefix := AppendEndFrame(nil, CloseDone)
			if got := AppendDataFrame(prefix, index, data); !bytes.Equal(got[len(prefix):], joined) {
				t.Fatalf("size %d index %d: AppendDataFrame differs from the joined frame", size, index)
			}
		}
	}
}

// failAfter is a writer that accepts n Writes and fails every later one.
type failAfter struct {
	bytes.Buffer
	n int
}

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n--; w.n < 0 {
		return 0, errors.New("peer is gone")
	}
	return w.Buffer.Write(p)
}

// TestWriteBuffered pins the emitter's contract: one call writes the chunk
// in hand, everything buffered behind it and the end frame once the channel
// has closed, byte for byte what AppendDataFrame and AppendEndFrame build,
// every payload released; a Write that fails — on a header or on a payload
// — releases the chunk in hand exactly once, touches nothing still in the
// channel, and reports no end.
func TestWriteBuffered(t *testing.T) {
	base := bufpool.InUse()
	fill := func(s *Session, chunks int) (want []byte) {
		for i := 0; i < chunks; i++ {
			buf := bufpool.Get(300)
			copy(buf.Data(), SeededContent(9, uint64(i), 300))
			s.Offer(Chunk{Index: i, Payload: bufpool.Payload{Data: buf.Data(), Buf: buf}})
			want = AppendDataFrame(want, i, buf.Data())
		}
		return want
	}

	s := NewSession(1, 0, 300, SessionBufferConfig{Buffer: 8})
	want := fill(s, 3)
	var wire bytes.Buffer
	c, open := <-s.Chunks()
	if n, end, err := s.WriteBuffered(&wire, c, open); err != nil || end || n != len(want) || !bytes.Equal(wire.Bytes(), want) {
		t.Fatalf("open gather: n=%d end=%v err=%v, want %d bytes of 3 data frames", n, end, err, len(want))
	}
	want = AppendEndFrame(AppendDataFrame(want[:0], 7, nil), CloseStopped)
	s.Offer(Chunk{Index: 7})
	s.Close(CloseStopped)
	wire.Reset()
	c, open = <-s.Chunks()
	if n, end, err := s.WriteBuffered(&wire, c, open); err != nil || !end || n != len(want) || !bytes.Equal(wire.Bytes(), want) {
		t.Fatalf("closing gather: n=%d end=%v err=%v, want %d bytes ending in the end frame", n, end, err, len(want))
	}
	if got := bufpool.InUse(); got != base {
		t.Fatalf("after two gathers %d buffers in use, want %d", got, base)
	}

	for _, okWrites := range []int{0, 1, 2, 3} { // fails on: header 0, payload 0, header 1, payload 1
		s := NewSession(1, 0, 300, SessionBufferConfig{Buffer: 8})
		fill(s, 6)
		s.Close(CloseDone)
		w := &failAfter{n: okWrites}
		c, open := <-s.Chunks()
		if _, end, err := s.WriteBuffered(w, c, open); err == nil || end {
			t.Fatalf("writer failing after %d writes: end=%v err=%v", okWrites, end, err)
		}
		if left, want := s.Buffered(), 5-okWrites/2; left != want {
			t.Fatalf("writer failing after %d writes: %d chunks left in the channel, want %d", okWrites, left, want)
		}
		s.ReleaseBuffered()
		if got := bufpool.InUse(); got != base {
			t.Fatalf("writer failing after %d writes: %d buffers in use after the sweep, want %d", okWrites, got, base)
		}
	}
}

func TestFrameCorruptionDetected(t *testing.T) {
	wire := AppendDataFrame(nil, 3, SeededContent(1, 3, 64))
	wire[len(wire)-1] ^= 0x01
	_, err := ReadFrame(bufio.NewReader(bytes.NewReader(wire)))
	if !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("corrupt frame read = %v, want ErrFrameCorrupt", err)
	}
	// A torn header mid-stream is corruption, not clean EOF.
	_, err = ReadFrame(bufio.NewReader(bytes.NewReader(wire[:4])))
	if !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("torn header = %v, want ErrFrameCorrupt", err)
	}
	// A block index that does not fit an int is corruption too, whatever
	// the checksum says: the parent handed the client Index −9223372036854775808.
	forged := binary.AppendUvarint(append(frame.Begin(nil), frameData), 1<<63)
	forged = frame.Finish(append(forged, "block bytes"...), 0)
	f, err := ReadFrame(bufio.NewReader(bytes.NewReader(forged)))
	if !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("forged block index read as %+v, %v, want ErrFrameCorrupt", f, err)
	}
}

// TestReadFrameKeepsCause: a read that fails inside a frame is still
// ErrFrameCorrupt — the stream cannot continue — but the error that stopped
// it stays reachable, so a client can tell a slow stream (a deadline) from
// a corrupt one. A clean close between frames stays a bare io.EOF.
func TestReadFrameKeepsCause(t *testing.T) {
	wire := AppendDataFrame(nil, 3, SeededContent(1, 3, 64))
	slow := errors.New("read deadline exceeded")
	midBody := io.MultiReader(bytes.NewReader(wire[:20]), iotest.ErrReader(slow))
	_, err := ReadFrameInto(bufio.NewReader(midBody), nil)
	if !errors.Is(err, ErrFrameCorrupt) || !errors.Is(err, slow) {
		t.Fatalf("read failing mid-body = %v, want ErrFrameCorrupt wrapping the cause", err)
	}
	_, err = ReadFrameInto(bufio.NewReader(bytes.NewReader(wire[:20])), nil)
	if !errors.Is(err, ErrFrameCorrupt) || !errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
		t.Fatalf("stream ending mid-body = %v, want ErrFrameCorrupt wrapping io.ErrUnexpectedEOF", err)
	}
	br := bufio.NewReader(bytes.NewReader(wire))
	if _, err := ReadFrameInto(br, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrameInto(br, nil); err != io.EOF {
		t.Fatalf("clean close between frames = %v, want a bare io.EOF", err)
	}
}

func TestSessionBackpressureAndEviction(t *testing.T) {
	s := NewSession(1, 10, 64, SessionBufferConfig{Buffer: 2, EvictAfter: 3})
	if d, e := s.Offer(Chunk{Index: 0}); !d || e {
		t.Fatal("first offer should buffer")
	}
	if d, e := s.Offer(Chunk{Index: 1}); !d || e {
		t.Fatal("second offer should buffer")
	}
	// Buffer full: misses accumulate, eviction on the 3rd consecutive.
	if d, e := s.Offer(Chunk{Index: 2}); d || e {
		t.Fatal("third offer should miss without evicting")
	}
	if d, e := s.Offer(Chunk{Index: 3}); d || e {
		t.Fatal("fourth offer should miss without evicting")
	}
	if d, e := s.Offer(Chunk{Index: 4}); d || !e {
		t.Fatal("fifth offer should demand eviction")
	}
	if s.Misses() != 3 || s.Delivered() != 2 {
		t.Fatalf("misses=%d delivered=%d, want 3/2", s.Misses(), s.Delivered())
	}
	// Draining resets the consecutive-miss streak.
	<-s.Chunks()
	if d, e := s.Offer(Chunk{Index: 5}); !d || e {
		t.Fatal("offer after drain should buffer")
	}
	s.Close(CloseEvicted)
	s.Close(CloseDone) // idempotent; first reason wins
	if !s.Closed() || s.Reason() != CloseEvicted {
		t.Fatalf("closed=%v reason=%v", s.Closed(), s.Reason())
	}
	// Channel drains remaining chunks then reports closure.
	n := 0
	for range s.Chunks() {
		n++
	}
	if n != 2 {
		t.Fatalf("drained %d chunks after close, want 2", n)
	}
	// Offers after close are quietly dropped.
	if d, e := s.Offer(Chunk{Index: 6}); d || e {
		t.Fatal("offer after close must be a no-op")
	}
}
