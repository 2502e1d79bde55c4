package frame

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestWriteRefusesWhatReadersRefuse: a payload outside (0, max] is refused
// with ErrBound, naming both sizes, before a byte reaches the writer.
func TestWriteRefusesWhatReadersRefuse(t *testing.T) {
	var out bytes.Buffer
	w := bufio.NewWriter(&out)
	for _, n := range []int{0, 65, 5000} {
		err := Write(w, make([]byte, n), 64)
		if !errors.Is(err, ErrBound) || !strings.Contains(err.Error(), fmt.Sprintf("%d bytes", n)) ||
			!strings.Contains(err.Error(), "to 64") {
			t.Errorf("Write of %d bytes under a bound of 64: %v, want ErrBound naming both sizes", n, err)
		}
		if w.Buffered() != 0 || out.Len() != 0 {
			t.Fatalf("Write of %d bytes under a bound of 64 wrote %d bytes", n, w.Buffered()+out.Len())
		}
	}
	if err := Write(w, make([]byte, 64), 64); err != nil {
		t.Fatalf("Write of exactly max: %v", err)
	}
	if w.Flush(); readAll(t, out.Bytes(), 64).class != nil {
		t.Fatal("the frame Write accepted does not read back under the same bound")
	}
}

// TestCursorTrailing: a clean read that leaves bytes behind is not Done, and
// a read past the end fails the cursor. (Moved here with the cursor from
// binproto's TestWireCursorTrailing.)
func TestCursorTrailing(t *testing.T) {
	c := Cursor{Buf: []byte{1, 2, 3, 4, 5}}
	if v := c.U32("word"); v != 0x04030201 || !c.OK() {
		t.Fatalf("U32 = %#x, OK %v", v, c.OK())
	}
	if err := c.Done("payload"); err == nil || !strings.Contains(err.Error(), "payload: 1 trailing") {
		t.Fatalf("Done with a trailing byte: %v", err)
	}
	c = Cursor{Buf: []byte{1, 2}}
	if v := c.U32("word"); v != 0 || c.OK() {
		t.Fatalf("U32 over a 2-byte buffer = %#x, OK %v: want 0 and a failed cursor", v, c.OK())
	}
}

// TestCursorFailureSticks: the first field that cannot be read is the one
// Done names; every read after it returns zero, even where bytes that would
// satisfy it follow.
func TestCursorFailureSticks(t *testing.T) {
	buf := append(binary.AppendUvarint([]byte{7}, 1<<63), 1, 2, 3, 4, 5, 6, 7, 8, 9)
	c := Cursor{Buf: buf}
	if c.U8("tag") != 7 || c.Int("index") != 0 {
		t.Fatal("tag or over-range index read wrong")
	}
	if c.U8("a") != 0 || c.U32("b") != 0 || c.U64("c") != 0 || c.Float64("d") != 0 || c.Uvarint("e") != 0 ||
		c.Varint("f") != 0 || c.Int("g") != 0 || c.Count(1, "h") != 0 || c.Bytes(1, "i") != nil || len(c.Rest()) != 0 {
		t.Fatal("a read after the failure returned something")
	}
	err := c.Done("record")
	if c.OK() || err == nil || !strings.Contains(err.Error(), "record: index") {
		t.Fatalf("Done = %v, want the first failed field named", err)
	}
}

// TestCursorBounds: the three refusals that are not "ran out of bytes".
func TestCursorBounds(t *testing.T) {
	for _, tc := range []struct {
		name string
		buf  []byte
		read func(*Cursor)
		ok   bool
	}{
		{"Int at the bound", binary.AppendUvarint(nil, 1<<62-1), func(c *Cursor) { c.Int("v") }, math.MaxInt > 1<<31},
		{"Int over the bound", binary.AppendUvarint(nil, 1<<62), func(c *Cursor) { c.Int("v") }, false},
		{"Int64 at the bound", binary.AppendUvarint(nil, 1<<62-1), func(c *Cursor) { c.Int64("v") }, true},
		{"Int64 over the bound", binary.AppendUvarint(nil, 1<<62), func(c *Cursor) { c.Int64("v") }, false},
		{"Int over an int's width", binary.AppendUvarint(nil, 1<<31), func(c *Cursor) { c.Int("v") }, math.MaxInt > 1<<31},
		{"Int64 over an int's width", binary.AppendUvarint(nil, 73<<30), func(c *Cursor) { c.Int64("v") }, true},
		{"Uvarint over 64 bits", bytes.Repeat([]byte{0xFF}, 11), func(c *Cursor) { c.Uvarint("v") }, false},
		{"Count the rest can hold", []byte{2, 0, 0, 0, 0, 0, 0}, func(c *Cursor) { c.Count(3, "n"); c.Rest() }, true},
		{"Count the rest cannot hold", []byte{3, 0, 0, 0, 0, 0, 0, 0, 0}, func(c *Cursor) { c.Count(3, "n"); c.Rest() }, false},
		{"Count forged to the maximum", binary.AppendUvarint(nil, math.MaxUint64), func(c *Cursor) { c.Count(1, "n") }, false},
		{"Bytes past the end", []byte{1, 2}, func(c *Cursor) { c.Bytes(3, "b") }, false},
		{"Bytes of a negative length", []byte{1, 2}, func(c *Cursor) { c.Bytes(-1, "b"); c.Rest() }, false},
		{"Float64", binary.LittleEndian.AppendUint64(nil, math.Float64bits(0.85)), func(c *Cursor) { c.Float64("f") }, true},
		{"Float64 NaN", binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN())), func(c *Cursor) { c.Float64("f") }, false},
	} {
		c := Cursor{Buf: tc.buf}
		if tc.read(&c); (c.Done(tc.name) == nil) != tc.ok {
			t.Errorf("%s: Done = %v, want ok = %v", tc.name, c.Done(tc.name), tc.ok)
		}
	}
}

// mixedPayload is one field of every kind: a byte, a u32, a u64, a uvarint,
// a varint, and a counted run of bytes.
func mixedPayload() []byte {
	buf := []byte{9}
	buf = binary.LittleEndian.AppendUint32(buf, 77)
	buf = binary.LittleEndian.AppendUint64(buf, 1<<40)
	buf = binary.AppendUvarint(buf, 300)
	buf = binary.AppendVarint(buf, -300)
	buf = binary.AppendUvarint(buf, 3)
	return append(buf, 'a', 'b', 'c')
}

// TestCursorZeroAlloc: a cursor on the stack and every reader on the good
// path cost no allocation (binproto's and the chunk stream's pins rest on it).
func TestCursorZeroAlloc(t *testing.T) {
	buf := mixedPayload()
	if n := testing.AllocsPerRun(100, func() {
		c := Cursor{Buf: buf}
		c.U8("a")
		c.U32("b")
		c.U64("c")
		c.Int("d")
		c.Varint("e")
		c.Bytes(c.Count(1, "f"), "g")
		if c.Done("payload") != nil {
			t.Fatal("decode failed")
		}
	}); n != 0 {
		t.Fatalf("%v allocations per decode, want 0", n)
	}
}

// FuzzCursor runs an arbitrary sequence of reads (script) over arbitrary
// bytes beside a reference that does the same with encoding/binary directly,
// on a private copy of exactly the payload: every value agrees, so the cursor
// never reads past Buf (the bytes after it in memory are poisoned); nothing
// panics; a failed cursor stays failed and returns only zeros; Done and OK
// say what the reference says.
func FuzzCursor(f *testing.F) {
	for _, b := range goldenFrames(f) {
		f.Add(b[HeaderLen:], []byte{0, 4, 9})        // tag, uvarint, rest: a chunk or a segment record
		f.Add(b[HeaderLen:], []byte{0, 1, 1, 1, 19}) // opcode, corr, count, then eight-byte pairs
		f.Add(b[HeaderLen:], []byte{0, 4, 4, 4, 7, 17, 28, 6, 5, 3, 2})
	}
	f.Add(binary.AppendUvarint(nil, math.MaxUint64), []byte{7, 6, 4})
	f.Add(binary.AppendUvarint(binary.AppendUvarint(nil, 73<<30), 1<<62), []byte{16, 16, 6}) // Int64, Int64, Int
	f.Add([]byte{}, []byte{9, 0})

	f.Fuzz(func(t *testing.T, data, script []byte) {
		ref := append([]byte(nil), data...)
		poisoned := append(append([]byte(nil), data...), bytes.Repeat([]byte{0xA5}, 16)...)
		c := Cursor{Buf: poisoned[:len(data)]}
		off, failed := 0, false
		fail := func() { failed, off = true, len(ref) }
		for step, op := range script {
			arg := int(op) / 10 // 0..25: a length for Bytes, minBytes−1 for Count, Int (even) or Int64 (odd)
			var got, want any
			switch op % 10 {
			case 0:
				got = c.U8("f")
				if want = uint8(0); len(ref)-off >= 1 {
					want, off = ref[off], off+1
				} else {
					fail()
				}
			case 1:
				got = c.U32("f")
				if want = uint32(0); len(ref)-off >= 4 {
					want, off = binary.LittleEndian.Uint32(ref[off:]), off+4
				} else {
					fail()
				}
			case 2, 3:
				v := uint64(0)
				if len(ref)-off >= 8 {
					v, off = binary.LittleEndian.Uint64(ref[off:]), off+8
				} else {
					fail()
				}
				if op%10 == 2 {
					got, want = c.U64("f"), v
				} else {
					x := math.Float64frombits(v)
					if math.IsNaN(x) {
						x = 0
						fail()
					}
					got, want = math.Float64bits(c.Float64("f")), math.Float64bits(x)
				}
			case 4, 6, 7:
				v, n := binary.Uvarint(ref[off:])
				if n <= 0 {
					v = 0
					fail()
				}
				off += max(n, 0)
				switch op % 10 {
				case 4:
					got, want = c.Uvarint("f"), v
				case 6:
					if v > 1<<62-1 || arg%2 == 0 && v > math.MaxInt {
						v = 0
						fail()
					}
					if arg%2 == 0 {
						got, want = c.Int("f"), int(v)
					} else {
						got, want = c.Int64("f"), int64(v)
					}
				case 7:
					if v > uint64(len(ref)-off)/uint64(arg+1) {
						v = 0
						fail()
					}
					got, want = c.Count(arg+1, "f"), int(v)
				}
			case 5:
				v, n := binary.Varint(ref[off:])
				if n <= 0 {
					v = 0
					fail()
				}
				off += max(n, 0)
				got, want = c.Varint("f"), v
			case 8:
				got = string(c.Bytes(arg, "f"))
				if want = ""; len(ref)-off >= arg {
					want, off = string(ref[off:off+arg]), off+arg
				} else {
					fail()
				}
			case 9:
				got, want = string(c.Rest()), string(ref[off:])
				off = len(ref)
			}
			if failed {
				off = len(ref)
			}
			if got != want {
				t.Fatalf("step %d, op %d: cursor read %v, encoding/binary %v", step, op, got, want)
			}
			if c.OK() == failed {
				t.Fatalf("step %d, op %d: OK = %v, reference failed = %v", step, op, c.OK(), failed)
			}
		}
		if done := c.Done("payload") == nil; done != (!failed && off == len(ref)) {
			t.Fatalf("Done = %v with reference failed = %v, %d of %d bytes read", done, failed, off, len(ref))
		}
	})
}

// BenchmarkCursor decodes one payload of every field kind: the per-field
// cost the decoders above it inherit, and the allocation gate's pin that
// reading allocates nothing.
func BenchmarkCursor(b *testing.B) {
	buf := mixedPayload()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := Cursor{Buf: buf}
		sink += uint64(c.U8("a")) + uint64(c.U32("b")) + c.U64("c") + uint64(c.Int("d")) + uint64(c.Varint("e"))
		sink += uint64(len(c.Bytes(c.Count(1, "f"), "g")))
		if c.Done("payload") != nil {
			b.Fatal("decode failed")
		}
	}
}

var sink uint64
