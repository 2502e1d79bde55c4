package dataplane

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/iotest"
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
