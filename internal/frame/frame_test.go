package frame

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// seal frames payload with Begin/Finish.
func seal(payload []byte) []byte {
	return Finish(append(Begin(nil), payload...), 0)
}

// verdict is what a reader made of some bytes: a payload, or one of the
// three ways of not getting one.
type verdict struct {
	payload []byte
	class   error // nil, io.EOF, ErrTorn or ErrCorrupt
}

func classify(t testing.TB, reader string, payload []byte, err error) verdict {
	t.Helper()
	switch {
	case err == nil:
		return verdict{payload: payload}
	case err == io.EOF:
		return verdict{class: io.EOF}
	case errors.Is(err, ErrTorn):
		return verdict{class: ErrTorn}
	case errors.Is(err, ErrCorrupt):
		return verdict{class: ErrCorrupt}
	}
	t.Fatalf("%s: error %v is none of io.EOF, ErrTorn, ErrCorrupt", reader, err)
	return verdict{}
}

// readAll runs the three readers over the first frame of data — Read
// through a minimum-size bufio.Reader, so the payload arrives in pieces —
// and fails unless they agree. It also holds each to its bounds: Next never
// claims bytes past the input, no reader returns a payload over max.
func readAll(t testing.TB, data []byte, max uint32) verdict {
	t.Helper()
	p, size, err := Next(data, max)
	next := classify(t, "Next", p, err)
	if size < 0 || size > len(data) || (err == nil && size != HeaderLen+len(p)) || (err != nil && size != 0) {
		t.Fatalf("Next: size %d for %d input bytes, payload %d, err %v", size, len(data), len(p), err)
	}
	var buf []byte
	p, err = Read(bufio.NewReaderSize(bytes.NewReader(data), 16), &buf, max)
	read := classify(t, "Read", p, err)
	if uint32(cap(buf)) > max {
		t.Fatalf("Read grew its buffer to %d bytes under a bound of %d", cap(buf), max)
	}
	p, err = ReadAt(bytes.NewReader(data), 0, max)
	readAt := classify(t, "ReadAt", p, err)
	for _, v := range []verdict{read, readAt} {
		if v.class != next.class || !bytes.Equal(v.payload, next.payload) {
			t.Fatalf("readers disagree on % x (max %d): Next %v, Read %v, ReadAt %v", data, max, next, read, readAt)
		}
	}
	if uint32(len(next.payload)) > max {
		t.Fatalf("payload of %d bytes returned under a bound of %d", len(next.payload), max)
	}
	return next
}

func TestRoundTrip(t *testing.T) {
	payloads := [][]byte{{1}, []byte("two"), bytes.Repeat([]byte{0xAB}, 5000)}

	// Begin/Finish, several frames in one buffer at growing offsets.
	var sealed []byte
	for _, p := range payloads {
		start := len(sealed)
		sealed = Finish(append(Begin(sealed), p...), start)
	}
	// Write, through a buffer small enough that the large frame overflows it.
	var written bytes.Buffer
	w := bufio.NewWriterSize(&written, 64)
	for _, p := range payloads {
		if err := Write(w, p, 1<<20); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sealed, written.Bytes()) {
		t.Fatalf("Begin/Finish and Write disagree:\n% x\n% x", sealed, written.Bytes())
	}

	rest, br, off := sealed, bufio.NewReader(bytes.NewReader(sealed)), int64(0)
	var buf []byte
	for i, want := range payloads {
		got, size, err := Next(rest, 1<<20)
		if err != nil || !bytes.Equal(got, want) || size != HeaderLen+len(want) {
			t.Fatalf("Next frame %d: % x, size %d, %v", i, got, size, err)
		}
		rest = rest[size:]
		if got, err = Read(br, &buf, 1<<20); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Read frame %d: % x, %v", i, got, err)
		}
		if got, err = ReadAt(bytes.NewReader(sealed), off, 1<<20); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("ReadAt frame %d: % x, %v", i, got, err)
		}
		off += int64(size)
	}
	if v := readAll(t, rest, 1<<20); v.class != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", v)
	}
	if _, err := Read(br, &buf, 1<<20); err != io.EOF {
		t.Fatalf("Read after the last frame: %v, want a bare io.EOF", err)
	}
	if _, err := ReadAt(bytes.NewReader(sealed), off, 1<<20); err != io.EOF {
		t.Fatalf("ReadAt at the end: %v, want a bare io.EOF", err)
	}
}

// TestFinishSplit: a frame sealed over head ‖ body without joining them is,
// once body follows it, the frame Finish seals over the joined payload — at
// every split point, behind an earlier frame in the same buffer.
func TestFinishSplit(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB, 7, 0, 0xFF}, 1250)
	earlier := seal([]byte("earlier frame"))
	want := append(append([]byte(nil), earlier...), seal(payload)...)
	for _, k := range []int{0, 1, 11, len(payload) - 1, len(payload)} {
		head, body := payload[:k], payload[k:]
		got := append([]byte(nil), earlier...)
		got = FinishSplit(append(Begin(got), head...), len(earlier), body)
		if got = append(got, body...); !bytes.Equal(got, want) {
			t.Fatalf("split at %d of %d: frame differs from the joined one", k, len(payload))
		}
	}
}

// TestVerdicts is the rule, case by case, on all three readers at once.
func TestVerdicts(t *testing.T) {
	const max = 64
	good := seal([]byte("payload"))
	flip := func(i int) []byte {
		b := append([]byte(nil), good...)
		b[i] ^= 0x01
		return b
	}
	type testCase struct {
		name string
		data []byte
		want error
	}
	cases := []testCase{
		{"empty input", nil, io.EOF},
		{"whole frame", good, nil},
		{"whole frame then garbage", append(append([]byte(nil), good...), 0xFF, 0xFF), nil},
		{"payload of exactly max", seal(make([]byte, max)), nil},
		{"payload of max+1", seal(make([]byte, max+1)), ErrCorrupt},
		{"length over the bound, input too short to hold it", seal(make([]byte, max+1))[:HeaderLen+3], ErrCorrupt},
		{"zero length", seal(nil), ErrCorrupt},
		{"zero length, nothing after", make([]byte, HeaderLen), ErrCorrupt},
		{"ends mid-payload", good[:len(good)-1], ErrTorn},
		{"ends after the header", good[:HeaderLen], ErrTorn},
		{"flipped CRC bit", flip(5), ErrCorrupt},
		{"flipped payload bit", flip(HeaderLen + 2), ErrCorrupt},
		{"flipped length bit, shorter", flip(0), ErrCorrupt},
	}
	for k := 1; k < HeaderLen; k++ {
		cases = append(cases, testCase{"ends inside the header", good[:k], ErrTorn})
	}
	for _, tc := range cases {
		v := readAll(t, tc.data, max)
		if v.class != tc.want {
			t.Errorf("%s (% x): got %v, want %v", tc.name, tc.data, v.class, tc.want)
		}
		if tc.want == nil && !bytes.Equal(v.payload, tc.data[HeaderLen:HeaderLen+len(v.payload)]) {
			t.Errorf("%s: payload % x is not the framed bytes", tc.name, v.payload)
		}
	}
}

// failAfter yields n bytes of data, then err.
type failAfter struct {
	data []byte
	n    int
	err  error
}

func (f *failAfter) Read(p []byte) (int, error) {
	if f.n == 0 {
		return 0, f.err
	}
	k := copy(p, f.data[:min(f.n, len(p))])
	f.data, f.n = f.data[k:], f.n-k
	return k, nil
}

func (f *failAfter) ReadAt(p []byte, off int64) (int, error) {
	k := copy(p, f.data[min(int(off), f.n):f.n])
	if k < len(p) {
		return k, f.err
	}
	return k, nil
}

// TestReadErrorsKeepTheirCause: a stream read that fails inside a frame is
// ErrTorn and still the error that stopped it; one that fails between
// frames is that error alone. A positional read is never torn by an I/O
// error, only by the end of the file.
func TestReadErrorsKeepTheirCause(t *testing.T) {
	sentinel := errors.New("deadline exceeded, say")
	good := seal(bytes.Repeat([]byte{7}, 40))
	for _, n := range []int{3, HeaderLen, HeaderLen + 11} {
		var buf []byte
		_, err := Read(bufio.NewReaderSize(&failAfter{good, n, sentinel}, 16), &buf, 64)
		if !errors.Is(err, ErrTorn) || !errors.Is(err, sentinel) {
			t.Errorf("stream failing %d bytes into a frame: %v, want ErrTorn wrapping the cause", n, err)
		}
		_, err = Read(bufio.NewReaderSize(&failAfter{good, n, io.EOF}, 16), &buf, 64)
		if !errors.Is(err, ErrTorn) || !errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
			t.Errorf("stream ending %d bytes into a frame: %v, want ErrTorn wrapping io.ErrUnexpectedEOF", n, err)
		}
		if _, err = ReadAt(&failAfter{good, n, sentinel}, 0, 64); err != sentinel {
			t.Errorf("positional read failing %d bytes into a frame: %v, want the bare cause", n, err)
		}
	}
	var buf []byte
	if _, err := Read(bufio.NewReader(&failAfter{good, 0, sentinel}), &buf, 64); err != sentinel {
		t.Errorf("stream failing between frames: %v, want the bare cause", err)
	}
	if _, err := ReadAt(&failAfter{good, 0, sentinel}, 0, 64); err != sentinel {
		t.Errorf("positional read failing at a frame boundary: %v, want the bare cause", err)
	}
}

// TestSteadyStateAllocs pins what binproto, the chunk stream and the
// journal rely on: once the read buffer has grown, neither framing nor
// reading a frame allocates.
func TestSteadyStateAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte{9}, 512)
	wire := bytes.Repeat(seal(payload), 200)
	w := bufio.NewWriter(io.Discard)
	dst := make([]byte, 0, 1024)
	br, buf := bufio.NewReader(bytes.NewReader(wire)), make([]byte, 0, 512)
	if n := testing.AllocsPerRun(100, func() {
		if err := Write(w, payload, 1024); err != nil {
			t.Fatal(err)
		}
		dst = Finish(append(Begin(dst[:0]), payload...), 0)
		if _, err := Read(br, &buf, 1024); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Next(wire, 1024); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("%v allocations per Write+Finish+Read+Next, want 0", n)
	}
}

// goldenFrames loads every golden frame file the caller packages commit
// under their testdata directories: bytes written by the encoders this
// package replaced, so reading them here is the compatibility proof.
func goldenFrames(t testing.TB) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "*", "testdata", "*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	frames := map[string][]byte{}
	for _, path := range paths {
		if strings.HasSuffix(path, "handshake.bin") || strings.HasSuffix(path, "upgrade.bin") {
			continue // binproto's handshake and HTTP upgrade are not frames
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		frames[path] = b
	}
	if len(frames) < 10 {
		t.Fatalf("found %d golden frames, want the 3 binproto, 4 dataplane, 2 repl and 1 store files", len(frames))
	}
	return frames
}

func TestGoldenFramesDecode(t *testing.T) {
	for path, b := range goldenFrames(t) {
		v := readAll(t, b, 1<<20)
		if v.class != nil || len(v.payload) != len(b)-HeaderLen {
			t.Errorf("%s: %v, want one whole frame of %d payload bytes", path, v, len(b)-HeaderLen)
		}
		if !bytes.Equal(seal(v.payload), b) {
			t.Errorf("%s: re-framing the payload does not reproduce the file", path)
		}
	}
}

// FuzzFrame: on arbitrary bytes and an arbitrary bound the three readers
// agree (readAll), none panics or over-allocates, and whatever the bytes
// are, framing them as a payload reads back from every reader and sealing
// them in two parts (FinishSplit) gives the same frame.
func FuzzFrame(f *testing.F) {
	const max = 1 << 16
	for _, b := range goldenFrames(f) {
		f.Add(b, uint32(max))
		for cut := 0; cut <= HeaderLen+1 && cut < len(b); cut++ {
			f.Add(b[:cut], uint32(max))
		}
		f.Add(b[:len(b)-1], uint32(max))
		f.Add(b, uint32(len(b)-HeaderLen))   // payload of exactly max
		f.Add(b, uint32(len(b)-HeaderLen-1)) // payload of max+1
		flipped := append([]byte(nil), b...)
		flipped[4] ^= 0x80
		f.Add(flipped, uint32(max))
	}
	f.Add(make([]byte, HeaderLen), uint32(max))                  // zero length
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}, uint32(0)) // forged length

	f.Fuzz(func(t *testing.T, data []byte, bound uint32) {
		bound %= max + 1
		readAll(t, data, bound)
		if len(data) == 0 || len(data) > max {
			return
		}
		sealed := seal(data)
		v := readAll(t, sealed, max)
		if v.class != nil || !bytes.Equal(v.payload, data) {
			t.Fatalf("framed payload % x read back as %v", data, v)
		}
		k := int(bound) % (len(data) + 1)
		split := FinishSplit(append(Begin(nil), data[:k]...), 0, data[k:])
		if split = append(split, data[k:]...); !bytes.Equal(split, sealed) {
			t.Fatalf("payload % x sealed in parts at %d differs from the joined frame", data, k)
		}
	})
}
