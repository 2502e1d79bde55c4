package scaddar

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"scaddar/internal/frame"
)

// This file gives History durable encodings. The paper's point is that
// SCADDAR needs "only a storage structure for recording scaling operations,
// which is significantly less than the number of all block locations"; these
// codecs make that structure concrete: a JSON form for configuration files
// and debugging, and a compact varint binary form for on-disk metadata.

// historyJSON is the exported wire shape of a History.
type historyJSON struct {
	N0  int  `json:"n0"`
	Ops []Op `json:"ops"`
}

// MarshalJSON encodes the history as {"n0": ..., "ops": [...]}.
func (h *History) MarshalJSON() ([]byte, error) {
	return json.Marshal(historyJSON{N0: h.n0, Ops: h.ops})
}

// UnmarshalJSON decodes and validates a history by replaying its operations,
// so a corrupt log cannot produce an inconsistent History.
func (h *History) UnmarshalJSON(data []byte) error {
	var w historyJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	r, err := replay(w.N0, w.Ops)
	if err != nil {
		return err
	}
	old := h.version
	*h = *r
	// Keep the version counter strictly increasing across a decode, so any
	// compiled chain built against the previous contents is invalidated even
	// when the decoded log happens to have the same operation count.
	h.version = old + r.version + 1
	return nil
}

// replay rebuilds a History from raw operations, re-validating each step.
func replay(n0 int, ops []Op) (*History, error) {
	h, err := NewHistory(n0)
	if err != nil {
		return nil, err
	}
	for i, op := range ops {
		switch op.Kind {
		case OpAdd:
			if op.NBefore != h.N() {
				return nil, fmt.Errorf("scaddar: op %d: nBefore %d, want %d", i+1, op.NBefore, h.N())
			}
			if _, err := h.Add(op.NAfter - op.NBefore); err != nil {
				return nil, fmt.Errorf("scaddar: op %d: %w", i+1, err)
			}
		case OpRemove:
			if op.NBefore != h.N() {
				return nil, fmt.Errorf("scaddar: op %d: nBefore %d, want %d", i+1, op.NBefore, h.N())
			}
			rec, err := h.Remove(op.Removed...)
			if err != nil {
				return nil, fmt.Errorf("scaddar: op %d: %w", i+1, err)
			}
			if rec.NAfter != op.NAfter {
				return nil, fmt.Errorf("scaddar: op %d: nAfter %d, want %d", i+1, op.NAfter, rec.NAfter)
			}
		default:
			return nil, fmt.Errorf("scaddar: op %d: unknown kind %d", i+1, op.Kind)
		}
	}
	return h, nil
}

// binaryMagic guards the binary history encoding ("SCDR" + version 1).
var binaryMagic = [4]byte{'S', 'C', 'D', 'R'}

const binaryVersion = 1

// AppendBinary encodes the history into a compact varint form:
//
//	magic(4) version(uvarint) n0(uvarint) nops(uvarint)
//	then per op: kind(uvarint), and for adds count(uvarint), for removes
//	count(uvarint) followed by delta-encoded removed indices.
func (h *History) AppendBinary(dst []byte) []byte {
	dst = append(dst, binaryMagic[:]...)
	dst = binary.AppendUvarint(dst, binaryVersion)
	dst = binary.AppendUvarint(dst, uint64(h.n0))
	dst = binary.AppendUvarint(dst, uint64(len(h.ops)))
	for _, op := range h.ops {
		dst = binary.AppendUvarint(dst, uint64(op.Kind))
		dst = binary.AppendUvarint(dst, uint64(op.Count()))
		if op.Kind == OpRemove {
			prev := 0
			for _, r := range op.Removed {
				dst = binary.AppendUvarint(dst, uint64(r-prev))
				prev = r
			}
		}
	}
	return dst
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (h *History) MarshalBinary() ([]byte, error) {
	return h.AppendBinary(nil), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replaying and
// re-validating the encoded operations.
func (h *History) UnmarshalBinary(data []byte) error {
	c := frame.Cursor{Buf: data}
	if magic := c.Bytes(len(binaryMagic), "magic"); c.OK() && [4]byte(magic) != binaryMagic {
		return fmt.Errorf("scaddar: binary history: bad magic %q", magic)
	}
	if version := c.Uvarint("version"); c.OK() && version != binaryVersion {
		return fmt.Errorf("scaddar: binary history: unsupported version %d", version)
	}
	n0 := c.Int("n0")
	// Every operation costs at least its kind and count bytes, and every
	// removed index at least one delta byte: Count holds both lengths to
	// what the input could hold before anything is sized or looped by them.
	nops := c.Count(2, "operation count")
	if !c.OK() {
		return c.Done("scaddar: binary history")
	}
	out, err := NewHistory(n0)
	if err != nil {
		return err
	}
	for i := 1; i <= nops && c.OK(); i++ {
		switch kind := c.Uvarint("operation kind"); kind {
		case uint64(OpAdd):
			_, err = out.Add(c.Int("disks added"))
		case uint64(OpRemove):
			removed := make([]int, c.Count(1, "removal count"))
			prev := 0
			for k := range removed {
				// Int leaves a bit of headroom: a sum that overflows goes
				// negative, stays in removed, and Remove refuses it.
				prev += c.Int("removed index delta")
				removed[k] = prev
			}
			_, err = out.Remove(removed...)
		default:
			err = fmt.Errorf("unknown kind %d", kind)
		}
		if err != nil && c.OK() {
			return fmt.Errorf("scaddar: binary history op %d: %w", i, err)
		}
	}
	if err := c.Done("scaddar: binary history"); err != nil {
		return err
	}
	old := h.version
	*h = *out
	// As in UnmarshalJSON: a decode must invalidate any compiled chain built
	// against the previous contents.
	h.version = old + out.version + 1
	return nil
}
