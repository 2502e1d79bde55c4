// Package frame is the one implementation of the envelope every durable
// file and every machine wire in this tree shares:
//
//	uint32 LE payload length | uint32 LE CRC-32C (Castagnoli) of payload | payload
//
// One rule: a frame is trusted only when its declared length lies in
// (0, max] and the checksum matches. Every reader checks in the same order —
// header complete, length in bound, payload complete, checksum — and so
// gives the same verdict on the same bytes (FuzzFrame): input that stops
// before a frame's first byte is a clean end (io.EOF), input that stops
// inside one is ErrTorn, a bad length or checksum is ErrCorrupt. What a
// verdict means — truncate there, "not flushed yet", drop the connection —
// and the per-medium bound passed as max are the caller's; ARCHITECTURE.md
// "Framing" tabulates both per site. Write takes the same bound, so a writer
// cannot emit what its readers refuse; what is inside a payload is read with
// Cursor.
package frame

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// HeaderLen is the size of the length + checksum header before a payload.
const HeaderLen = 8

var (
	// ErrTorn reports input that ended inside a frame: a crash mid-append,
	// bytes not flushed yet, a peer that hung up or stalled mid-frame.
	ErrTorn = errors.New("frame: input ends inside a frame")
	// ErrCorrupt reports a complete header declaring a length of zero or
	// above the bound, or a complete frame whose checksum does not match.
	ErrCorrupt = errors.New("frame: corrupt frame")
	// ErrBound reports a payload Write was asked to frame that every reader
	// holding the same bound would refuse as ErrCorrupt: empty, or over max.
	ErrBound = errors.New("frame: payload length out of bound")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC-32C the envelope carries. The two whole-file formats
// (store checkpoints, the segment-store index checkpoint) use it directly.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// Begin reserves a frame header at the end of dst. The caller appends the
// payload after it and seals the frame with Finish.
func Begin(dst []byte) []byte { return append(dst, 0, 0, 0, 0, 0, 0, 0, 0) }

// Finish seals the frame begun at offset start — len(dst) before Begin —
// with the length and checksum of everything appended since; returns dst.
func Finish(dst []byte, start int) []byte { return FinishSplit(dst, start, nil) }

// FinishSplit seals a frame whose payload is given in two parts: head,
// everything appended to dst since Begin at offset start, and body, which
// stays where it is. The length and checksum cover head ‖ body without
// joining them, so dst ‖ body is byte for byte the frame Finish would have
// sealed over the joined payload — the caller writes body after dst itself,
// however large it is, without copying it. Returns dst.
func FinishSplit(dst []byte, start int, body []byte) []byte {
	head := dst[start+HeaderLen:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(head)+len(body)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Update(Checksum(head), castagnoli, body))
	return dst
}

// Write frames payload onto w, under the bound max the readers of the same
// medium pass: a payload they would refuse is refused here with ErrBound
// before a byte is written, so a writer cannot emit what its readers drop.
// The header is built in w's own spare capacity, so nothing escapes to the
// heap; when the frame overflows the buffer, bufio flushes to the underlying
// writer under whatever deadline the caller armed.
func Write(w *bufio.Writer, payload []byte, max uint32) error {
	if n := len(payload); n == 0 || uint64(n) > uint64(max) {
		return fmt.Errorf("%w: %d bytes, readers accept 1 to %d", ErrBound, n, max)
	}
	hdr := binary.LittleEndian.AppendUint32(w.AvailableBuffer(), uint32(len(payload)))
	hdr = binary.LittleEndian.AppendUint32(hdr, Checksum(payload))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// header parses a complete frame header, enforcing the length bound.
func header(hdr []byte, max uint32) (n, sum uint32, err error) {
	n = binary.LittleEndian.Uint32(hdr)
	if n == 0 || n > max {
		return 0, 0, fmt.Errorf("%w: declares %d payload bytes (max %d)", ErrCorrupt, n, max)
	}
	return n, binary.LittleEndian.Uint32(hdr[4:]), nil
}

// verify checks a complete payload against its header's checksum.
func verify(payload []byte, sum uint32) ([]byte, error) {
	if Checksum(payload) != sum {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	return payload, nil
}

// Next scans the frame at the start of data, returning its payload (a
// slice of data) and the frame's total size, never more than len(data).
// Empty data is io.EOF.
func Next(data []byte, max uint32) (payload []byte, size int, err error) {
	if len(data) < HeaderLen {
		if len(data) == 0 {
			return nil, 0, io.EOF
		}
		return nil, 0, ErrTorn
	}
	n, sum, err := header(data, max)
	if err != nil {
		return nil, 0, err
	}
	if len(data) < HeaderLen+int(n) {
		return nil, 0, ErrTorn
	}
	if payload, err = verify(data[HeaderLen:HeaderLen+n], sum); err != nil {
		return nil, 0, err
	}
	return payload, HeaderLen + len(payload), nil
}

// Read reads one frame from br into *buf, growing it only when the frame
// exceeds its capacity (never past max); the returned payload aliases *buf
// and is valid until the next Read with the same buffer. A read that fails
// before the first byte of a frame returns the reader's error bare — io.EOF
// for a clean close. One that fails inside a frame returns ErrTorn wrapping
// the cause (io.ErrUnexpectedEOF, a deadline, a reset): the consumed bytes
// cannot be replayed, so the stream cannot be resynchronized.
func Read(br *bufio.Reader, buf *[]byte, max uint32) ([]byte, error) {
	// Peek+Discard, not io.ReadFull into a local array: a slice of a stack
	// array passed through the io.Reader interface escapes to the heap.
	hdr, err := br.Peek(HeaderLen)
	if err != nil {
		if len(hdr) == 0 {
			return nil, err
		}
		return nil, torn(err)
	}
	n, sum, err := header(hdr, max)
	if err != nil {
		return nil, err
	}
	br.Discard(HeaderLen) // cannot fail: Peek buffered these bytes
	if uint32(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	payload := (*buf)[:n]
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, torn(err)
	}
	return verify(payload, sum)
}

// torn wraps the cause of a stream read that failed inside a frame.
func torn(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("%w: %w", ErrTorn, err)
}

// ReadAt reads the frame at offset off of r into a fresh payload; the frame
// occupies HeaderLen+len(payload) bytes. Offset off at the end of r is
// io.EOF, an end inside the frame is ErrTorn; any other read error is
// returned as is, since a positional read can be retried.
func ReadAt(r io.ReaderAt, off int64, max uint32) ([]byte, error) {
	var hdr [HeaderLen]byte
	if k, err := r.ReadAt(hdr[:], off); k < HeaderLen {
		if err != io.EOF {
			return nil, err
		}
		if k == 0 {
			return nil, io.EOF
		}
		return nil, ErrTorn
	}
	n, sum, err := header(hdr[:], max)
	if err != nil {
		return nil, err
	}
	payload := make([]byte, n)
	if k, err := r.ReadAt(payload, off+HeaderLen); k < len(payload) {
		if err != io.EOF {
			return nil, err
		}
		return nil, ErrTorn
	}
	return verify(payload, sum)
}
