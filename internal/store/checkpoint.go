package store

// Checkpoint files. A checkpoint serializes everything needed to rebuild
// the server without the journal prefix it covers: the server configuration
// (so `recover` needs no flags re-stating it) and cm.Metadata in its binary
// form. The file is written atomically (fsio) and framed with a CRC so a
// torn or bit-rotted checkpoint is detected and skipped in favor of an
// older one:
//
//	magic "SCCK" | version byte | uint32 LE CRC-32C of payload | payload
//
// The payload opens with the checkpoint's LSN (every event with an LSN at
// or below it is reflected in the state), cross-checked against the
// filename, followed by the replication epoch at that LSN (the running
// count of scaling-operation events since the journal's birth — what
// follower replicas fence reads on; version 2 added it). The placement X0
// generator is a function and cannot be persisted: recovery takes the
// generator factory as an argument — it must match what the original server
// used.

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"scaddar/internal/cm"
	"scaddar/internal/frame"
)

const (
	ckptMagic     = "SCCK"
	ckptVersion   = 2
	ckptHeaderLen = 4 + 1 + 4
)

// encodeCheckpoint renders a complete checkpoint file.
func encodeCheckpoint(lsn, epoch uint64, cfg cm.Config, md *cm.Metadata) ([]byte, error) {
	payload := binary.AppendUvarint(nil, lsn)
	payload = binary.AppendUvarint(payload, epoch)
	payload = binary.AppendUvarint(payload, uint64(cfg.Round))
	payload, err := appendProfile(payload, cfg.Profile)
	if err != nil {
		return nil, err
	}
	payload = binary.AppendUvarint(payload, uint64(cfg.BlockBytes))
	payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(cfg.Utilization))
	payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(cfg.OverloadTarget))
	payload = binary.AppendUvarint(payload, uint64(cfg.GeneratorBits))
	payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(cfg.Tolerance))
	payload = binary.AppendUvarint(payload, uint64(cfg.CacheBlocks))
	if cfg.MeasureRounds {
		payload = append(payload, 1)
	} else {
		payload = append(payload, 0)
	}
	payload = binary.AppendUvarint(payload, uint64(cfg.Redundancy))
	payload = binary.AppendUvarint(payload, uint64(cfg.ParityGroup))
	mdBytes, err := cm.EncodeMetadataBinary(md)
	if err != nil {
		return nil, err
	}
	payload = binary.AppendUvarint(payload, uint64(len(mdBytes)))
	payload = append(payload, mdBytes...)

	out := make([]byte, 0, ckptHeaderLen+len(payload))
	out = append(out, ckptMagic...)
	out = append(out, ckptVersion)
	out = binary.LittleEndian.AppendUint32(out, frame.Checksum(payload))
	return append(out, payload...), nil
}

// DecodeCheckpointData parses and validates checkpoint bytes — a checkpoint
// file, or what CheckpointData ships to a follower — returning the covered
// LSN, the replication epoch at it, the server configuration, and the
// metadata.
func DecodeCheckpointData(data []byte) (lsn, epoch uint64, cfg cm.Config, md *cm.Metadata, err error) {
	if len(data) < ckptHeaderLen || string(data[:4]) != ckptMagic {
		return 0, 0, cfg, nil, fmt.Errorf("store: checkpoint lacks magic %q", ckptMagic)
	}
	if data[4] != ckptVersion {
		return 0, 0, cfg, nil, fmt.Errorf("store: checkpoint format version %d, want %d", data[4], ckptVersion)
	}
	payload := data[ckptHeaderLen:]
	if frame.Checksum(payload) != binary.LittleEndian.Uint32(data[5:]) {
		return 0, 0, cfg, nil, fmt.Errorf("store: checkpoint CRC mismatch")
	}
	c := frame.Cursor{Buf: payload}
	lsn, epoch = c.Uvarint("LSN"), c.Uvarint("epoch")
	cfg.Round = time.Duration(c.Int64("round length"))
	cfg.Profile = readProfile(&c)
	cfg.BlockBytes = c.Int64("block size")
	cfg.Utilization = c.Float64("utilization")
	cfg.OverloadTarget = c.Float64("overload target")
	cfg.GeneratorBits = uint(c.Int("generator bits"))
	cfg.Tolerance = c.Float64("tolerance")
	cfg.CacheBlocks = c.Int("cache blocks")
	cfg.MeasureRounds = c.U8("measure-rounds flag") != 0
	cfg.Redundancy = cm.Redundancy(c.Int("redundancy"))
	cfg.ParityGroup = c.Int("parity group")
	mdBytes := c.Bytes(c.Count(1, "metadata length"), "metadata")
	if err := c.Done("store: checkpoint"); err != nil {
		return 0, 0, cfg, nil, err
	}
	md, err = cm.DecodeMetadataBinary(mdBytes)
	return lsn, epoch, cfg, md, err
}
