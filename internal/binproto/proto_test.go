package binproto

import (
	"encoding/binary"
	"errors"
	"testing"

	"scaddar/internal/cm"
	"scaddar/internal/frame"
)

// le shortens the stdlib appenders the encoders use.
var le = binary.LittleEndian

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
		buf = le.AppendUint32(buf, uint32(len(addrs)))
		for _, a := range addrs {
			buf = le.AppendUint32(buf, uint32(a.Object))
			buf = le.AppendUint32(buf, uint32(a.Index))
		}
		scratch = buf[:0]
	})
	if allocs != 0 {
		t.Fatalf("batch request encode allocates %.1f, want 0", allocs)
	}

	// A synthetic batch response to decode into a fixed Result slice.
	resp := appendHeader(scratch[:0], OpLocateBatch|RespFlag, 9)
	resp = le.AppendUint64(resp, 42)
	resp = append(resp, 0)
	resp = le.AppendUint32(resp, uint32(len(addrs)))
	for i := range addrs {
		resp = le.AppendUint32(resp, uint32(i%8))
		resp = append(resp, 0)
	}
	out := make([]Result, len(addrs))
	ca := &call{op: OpLocateBatch, out: out}
	allocs = testing.AllocsPerRun(200, func() {
		cur := frame.Cursor{Buf: resp}
		op := cur.U8("opcode")
		cur.U32("correlation ID")
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
		buf = le.AppendUint32(buf, uint32(len(addrs)))
		for _, a := range addrs {
			buf = le.AppendUint32(buf, uint32(a.Object))
			buf = le.AppendUint32(buf, uint32(a.Index))
		}
		scratch = buf[:0]
	}
}

func BenchmarkDecodeBatchResponse(b *testing.B) {
	n := 64
	resp := appendHeader(nil, OpLocateBatch|RespFlag, 9)
	resp = le.AppendUint64(resp, 42)
	resp = append(resp, 0)
	resp = le.AppendUint32(resp, uint32(n))
	for i := 0; i < n; i++ {
		resp = le.AppendUint32(resp, uint32(i%8))
		resp = append(resp, 0)
	}
	ca := &call{op: OpLocateBatch, out: make([]Result, n)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cur := frame.Cursor{Buf: resp}
		op := cur.U8("opcode")
		cur.U32("correlation ID")
		decodeInto(ca, op, &cur)
	}
}
