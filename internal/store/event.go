package store

// Binary codec for cm.Event — the payload inside every journal record. The
// encoding is varint-packed like the History codec: a kind tag followed by
// exactly the fields that kind carries. Kinds are append-only; decode
// rejects unknown kinds and forged counts so a corrupted (but CRC-colliding)
// or fuzzed payload cannot allocate unboundedly.

import (
	"encoding/binary"
	"fmt"
	"time"

	"scaddar/internal/cm"
	"scaddar/internal/disk"
	"scaddar/internal/frame"
)

// EncodeEvent renders one event in the journal's binary form, the inverse of
// DecodeEvent.
func EncodeEvent(ev cm.Event) ([]byte, error) {
	dst := binary.AppendUvarint(nil, uint64(ev.Kind))
	switch ev.Kind {
	case cm.EventObjectAdded, cm.EventIngestCommitted:
		return cm.AppendObject(dst, ev.Object)
	case cm.EventObjectRemoved:
		if ev.ObjectID < 0 {
			return nil, fmt.Errorf("store: negative object ID %d", ev.ObjectID)
		}
		return binary.AppendUvarint(dst, uint64(ev.ObjectID)), nil
	case cm.EventScaleUpStarted:
		if ev.Count < 0 {
			return nil, fmt.Errorf("store: negative disk count %d", ev.Count)
		}
		dst = binary.AppendUvarint(dst, uint64(ev.Count))
		if ev.Profile == nil {
			return append(dst, 0), nil
		}
		return appendProfile(append(dst, 1), *ev.Profile)
	case cm.EventScaleDownStarted:
		dst = binary.AppendUvarint(dst, uint64(len(ev.Disks)))
		for _, d := range ev.Disks {
			if d < 0 {
				return nil, fmt.Errorf("store: negative disk index %d", d)
			}
			dst = binary.AppendUvarint(dst, uint64(d))
		}
		return dst, nil
	case cm.EventRedistributeStarted, cm.EventReorgCompleted:
		return dst, nil
	case cm.EventBlocksMigrated:
		return appendBlockList(dst, ev.Moves)
	case cm.EventDiskFailed:
		if ev.Disk < 0 {
			return nil, fmt.Errorf("store: negative disk index %d", ev.Disk)
		}
		dst = binary.AppendUvarint(dst, uint64(ev.Disk))
		return appendBlockList(dst, ev.Lost)
	case cm.EventDiskRepaired:
		if ev.Disk < 0 {
			return nil, fmt.Errorf("store: negative disk index %d", ev.Disk)
		}
		return binary.AppendUvarint(dst, uint64(ev.Disk)), nil
	case cm.EventBlocksRebuilt:
		dst = binary.AppendUvarint(dst, uint64(len(ev.Rebuilt)))
		for _, rp := range ev.Rebuilt {
			if rp.Kind < 0 || rp.Object < 0 {
				return nil, fmt.Errorf("store: negative rebuild fields %+v", rp)
			}
			dst = binary.AppendUvarint(dst, uint64(rp.Kind))
			dst = binary.AppendUvarint(dst, uint64(rp.Object))
			dst = binary.AppendUvarint(dst, rp.Index)
		}
		return dst, nil
	default:
		return nil, fmt.Errorf("store: unknown event kind %d", ev.Kind)
	}
}

func appendProfile(dst []byte, p disk.Profile) ([]byte, error) {
	if p.CapacityBytes < 0 || p.AvgSeek < 0 || p.RPM < 0 || p.TransferBytesPerSec < 0 {
		return nil, fmt.Errorf("store: profile %q has negative fields", p.Name)
	}
	dst = binary.AppendUvarint(dst, uint64(len(p.Name)))
	dst = append(dst, p.Name...)
	dst = binary.AppendUvarint(dst, uint64(p.CapacityBytes))
	dst = binary.AppendUvarint(dst, uint64(p.AvgSeek))
	dst = binary.AppendUvarint(dst, uint64(p.RPM))
	dst = binary.AppendUvarint(dst, uint64(p.TransferBytesPerSec))
	return dst, nil
}

func appendBlockList(dst []byte, list []cm.BlockPos) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(list)))
	for _, bp := range list {
		if bp.Object < 0 {
			return nil, fmt.Errorf("store: negative object ID %d", bp.Object)
		}
		dst = binary.AppendUvarint(dst, uint64(bp.Object))
		dst = binary.AppendUvarint(dst, bp.Index)
	}
	return dst, nil
}

// DecodeEvent parses one event payload (the Event bytes of a TailRecord) —
// the inverse of EncodeEvent — rejecting trailing bytes.
func DecodeEvent(data []byte) (cm.Event, error) {
	c := frame.Cursor{Buf: data}
	ev := cm.Event{Kind: cm.EventKind(c.Int("event kind"))}
	switch ev.Kind {
	case cm.EventObjectAdded, cm.EventIngestCommitted:
		ev.Object = cm.ReadObject(&c)
	case cm.EventObjectRemoved:
		ev.ObjectID = c.Int("object ID")
	case cm.EventScaleUpStarted:
		ev.Count = c.Int("disk count")
		switch flag := c.U8("profile flag"); flag {
		case 0:
		case 1:
			p := readProfile(&c)
			ev.Profile = &p
		default:
			return cm.Event{}, fmt.Errorf("store: profile flag %d", flag)
		}
	case cm.EventScaleDownStarted:
		for n := c.Count(1, "disk list length"); n > 0; n-- {
			ev.Disks = append(ev.Disks, c.Int("disk index"))
		}
	case cm.EventRedistributeStarted, cm.EventReorgCompleted:
	case cm.EventBlocksMigrated:
		ev.Moves = readBlockList(&c)
	case cm.EventDiskFailed:
		ev.Disk = c.Int("disk index")
		ev.Lost = readBlockList(&c)
	case cm.EventDiskRepaired:
		ev.Disk = c.Int("disk index")
	case cm.EventBlocksRebuilt:
		for n := c.Count(3, "rebuild list length"); n > 0; n-- {
			ev.Rebuilt = append(ev.Rebuilt, cm.RebuildPos{
				Kind: c.Int("rebuild kind"), Object: c.Int("object ID"), Index: c.Uvarint("block index")})
		}
	default:
		if c.OK() {
			return cm.Event{}, fmt.Errorf("store: unknown event kind %d", ev.Kind)
		}
	}
	if err := c.Done("store: event"); err != nil {
		return cm.Event{}, err
	}
	return ev, nil
}

func readProfile(c *frame.Cursor) disk.Profile {
	return disk.Profile{
		Name:                string(c.Bytes(c.Count(1, "profile name length"), "profile name")),
		CapacityBytes:       c.Int64("profile capacity"),
		AvgSeek:             time.Duration(c.Int64("profile seek")),
		RPM:                 c.Int("profile rpm"),
		TransferBytesPerSec: c.Int64("profile transfer rate"),
	}
}

func readBlockList(c *frame.Cursor) []cm.BlockPos {
	var out []cm.BlockPos
	for n := c.Count(2, "block list length"); n > 0; n-- {
		out = append(out, cm.BlockPos{Object: c.Int("object ID"), Index: c.Uvarint("block index")})
	}
	return out
}
