package binproto

import (
	"errors"
	"testing"

	"scaddar/internal/cm"
)

func TestWireCursorTrailing(t *testing.T) {
	c := wireCursor{buf: []byte{1, 2, 3, 4, 5}}
	if c.u32(); !c.done() {
		// u32 consumed 4 of 5 bytes: done must be false.
	} else {
		t.Fatal("done with a trailing byte")
	}
	c = wireCursor{buf: []byte{1, 2}}
	c.u32()
	if !c.bad {
		t.Fatal("u32 over a 2-byte buffer did not mark the cursor bad")
	}
}

func TestErrorCodeMappingIsInverse(t *testing.T) {
	for _, err := range []error{cm.ErrUnknownObject, cm.ErrBlockOutOfRange, cm.ErrBusy, cm.ErrEpochFenced} {
		code := CodeForError(err)
		if code == ErrCodeInternal {
			t.Fatalf("%v maps to internal", err)
		}
		back := ErrorFromCode(code, "x")
		if !errors.Is(back, err) {
			t.Fatalf("code %d decodes to %v, not %v", code, back, err)
		}
	}
	if CodeForError(errors.New("anything else")) != ErrCodeInternal {
		t.Fatal("unrecognized error must map to ErrCodeInternal")
	}
}

// TestEncodeDecodeZeroAlloc is the steady-path allocation guard the
// tentpole demands: once scratch buffers exist, framing a batch request and
// decoding its response allocate nothing.
func TestEncodeDecodeZeroAlloc(t *testing.T) {
	addrs := make([]cm.BlockAddr, 64)
	for i := range addrs {
		addrs[i] = cm.BlockAddr{Object: i % 4, Index: i}
	}
	scratch := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(200, func() {
		buf := appendHeader(scratch[:0], OpLocateBatch, 9)
		buf = appendU32(buf, uint32(len(addrs)))
		for _, a := range addrs {
			buf = appendU32(buf, uint32(a.Object))
			buf = appendU32(buf, uint32(a.Index))
		}
		scratch = buf[:0]
	})
	if allocs != 0 {
		t.Fatalf("batch request encode allocates %.1f, want 0", allocs)
	}

	// A synthetic batch response to decode into a fixed Result slice.
	resp := appendHeader(scratch[:0], OpLocateBatch|RespFlag, 9)
	resp = appendU64(resp, 42)
	resp = append(resp, 0)
	resp = appendU32(resp, uint32(len(addrs)))
	for i := range addrs {
		resp = appendU32(resp, uint32(i%8))
		resp = append(resp, 0)
	}
	out := make([]Result, len(addrs))
	ca := &call{op: OpLocateBatch, out: out}
	allocs = testing.AllocsPerRun(200, func() {
		cur := wireCursor{buf: resp}
		op := cur.u8()
		cur.u32()
		decodeInto(ca, op, &cur)
		if ca.bad || ca.n != len(addrs) {
			t.Fatal("decode failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("batch response decode allocates %.1f, want 0", allocs)
	}
}

func BenchmarkEncodeBatchRequest(b *testing.B) {
	addrs := make([]cm.BlockAddr, 64)
	scratch := make([]byte, 0, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := appendHeader(scratch[:0], OpLocateBatch, uint32(i))
		buf = appendU32(buf, uint32(len(addrs)))
		for _, a := range addrs {
			buf = appendU32(buf, uint32(a.Object))
			buf = appendU32(buf, uint32(a.Index))
		}
		scratch = buf[:0]
	}
}

func BenchmarkDecodeBatchResponse(b *testing.B) {
	n := 64
	resp := appendHeader(nil, OpLocateBatch|RespFlag, 9)
	resp = appendU64(resp, 42)
	resp = append(resp, 0)
	resp = appendU32(resp, uint32(n))
	for i := 0; i < n; i++ {
		resp = appendU32(resp, uint32(i%8))
		resp = append(resp, 0)
	}
	ca := &call{op: OpLocateBatch, out: make([]Result, n)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cur := wireCursor{buf: resp}
		op := cur.u8()
		cur.u32()
		decodeInto(ca, op, &cur)
	}
}
