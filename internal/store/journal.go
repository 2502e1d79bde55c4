package store

// On-disk journal format. A data directory holds:
//
//	wal-<firstLSN:016x>.seg   journal segments
//	ckpt-<LSN:016x>.ckpt      checkpoints (see checkpoint.go)
//
// A segment begins with a 13-byte header — magic "SCWL", a format version
// byte, and the first LSN it holds (little-endian uint64, cross-checked
// against the filename so a mislabeled copy of another segment is caught) —
// followed by records in the shared envelope (internal/frame; see
// ARCHITECTURE.md "Framing") whose payload is a uvarint LSN followed by the
// event encoding (event.go). LSNs start at 1 and are contiguous within and
// across segments. Scanning stops at the first record that is torn, corrupt
// or out of LSN order: everything before it is trusted, everything after it
// is discarded — the contract crash recovery is built on.

import (
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"

	"scaddar/internal/frame"
)

const (
	segMagic      = "SCWL"
	segVersion    = 1
	segHeaderLen  = 4 + 1 + 8
	maxRecordLen  = 8 << 20 // bound on a record's payload, enforced by Append and every reader
	segPrefix     = "wal-"
	segSuffix     = ".seg"
	ckptPrefix    = "ckpt-"
	ckptSuffix    = ".ckpt"
	lsnNameDigits = 16
)

// segmentName returns the filename of the segment starting at firstLSN.
func segmentName(firstLSN uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, firstLSN, segSuffix)
}

// checkpointName returns the filename of the checkpoint covering all
// events through lsn.
func checkpointName(lsn uint64) string {
	return fmt.Sprintf("%s%016x%s", ckptPrefix, lsn, ckptSuffix)
}

// parseLSNName extracts the LSN from a "<prefix><16 hex digits><suffix>"
// filename, or reports false.
func parseLSNName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hex := name[len(prefix) : len(name)-len(suffix)]
	if len(hex) != lsnNameDigits {
		return 0, false
	}
	v, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// segmentHeader renders the header for a segment starting at firstLSN.
func segmentHeader(firstLSN uint64) []byte {
	hdr := make([]byte, segHeaderLen)
	copy(hdr, segMagic)
	hdr[4] = segVersion
	binary.LittleEndian.PutUint64(hdr[5:], firstLSN)
	return hdr
}

// appendRecord frames one event payload as a journal record.
func appendRecord(dst []byte, lsn uint64, event []byte) []byte {
	start := len(dst)
	dst = binary.AppendUvarint(frame.Begin(dst), lsn)
	return frame.Finish(append(dst, event...), start)
}

// record is one decoded journal record: the event payload is kept raw and
// decoded at replay time.
type record struct {
	lsn   uint64
	event []byte
}

// segmentScan is the result of scanning one segment's bytes.
type segmentScan struct {
	// firstLSN is the header's declared first LSN.
	firstLSN uint64
	// records are the valid records, in LSN order.
	records []record
	// validLen is the byte length of the trusted prefix (header plus valid
	// records); bytes past it must be truncated.
	validLen int64
	// truncated reports whether bytes past validLen exist, and why.
	truncated bool
	reason    string
}

// scanSegment parses a segment's bytes, trusting the longest valid prefix.
// An unusable header is an error (the file is not a segment of this store);
// anything wrong after the header marks a truncation point instead.
func scanSegment(data []byte) (*segmentScan, error) {
	if len(data) < segHeaderLen {
		return nil, fmt.Errorf("store: segment of %d bytes has no header", len(data))
	}
	if string(data[:4]) != segMagic {
		return nil, fmt.Errorf("store: segment lacks magic %q", segMagic)
	}
	if data[4] != segVersion {
		return nil, fmt.Errorf("store: segment format version %d, want %d", data[4], segVersion)
	}
	scan := &segmentScan{
		firstLSN: binary.LittleEndian.Uint64(data[5:]),
		validLen: segHeaderLen,
	}
	next := scan.firstLSN
	for {
		payload, size, err := frame.Next(data[scan.validLen:], maxRecordLen)
		if err == io.EOF {
			return scan, nil
		}
		if err != nil {
			scan.truncated, scan.reason = true, err.Error()
			return scan, nil
		}
		c := frame.Cursor{Buf: payload}
		lsn := c.Uvarint("LSN")
		if !c.OK() || lsn != next {
			scan.truncated, scan.reason = true, fmt.Sprintf("record LSN %d breaks continuity (want %d)", lsn, next)
			return scan, nil
		}
		scan.records = append(scan.records, record{lsn: lsn, event: c.Rest()})
		next++
		scan.validLen += int64(size)
	}
}

// lastLSN returns the LSN of the final valid record, or firstLSN-1 when the
// segment holds none.
func (sc *segmentScan) lastLSN() uint64 {
	if n := len(sc.records); n > 0 {
		return sc.records[n-1].lsn
	}
	return sc.firstLSN - 1
}
