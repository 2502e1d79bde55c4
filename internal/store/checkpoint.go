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
// follower replicas fence reads on; version 2 added it). Function-typed
// config fields (MirrorOffset, the placement X0 generator) cannot be
// persisted: stores refuse configs with a custom mirror offset, and
// recovery takes the generator factory as an argument — it must match what
// the original server used.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
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
	if cfg.MirrorOffset != nil {
		return nil, fmt.Errorf("store: cannot persist a custom MirrorOffset function")
	}
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

// decodeCheckpoint parses and validates a checkpoint file.
func decodeCheckpoint(data []byte) (lsn, epoch uint64, cfg cm.Config, md *cm.Metadata, err error) {
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
	r := bytes.NewReader(payload)
	if lsn, err = binary.ReadUvarint(r); err != nil {
		return 0, 0, cfg, nil, fmt.Errorf("store: checkpoint LSN: %w", err)
	}
	if epoch, err = binary.ReadUvarint(r); err != nil {
		return 0, 0, cfg, nil, fmt.Errorf("store: checkpoint epoch: %w", err)
	}
	round, err := readUint(r, "round length")
	if err != nil {
		return 0, 0, cfg, nil, err
	}
	cfg.Round = time.Duration(round)
	if cfg.Profile, err = readProfile(r); err != nil {
		return 0, 0, cfg, nil, err
	}
	blockBytes, err := readUint(r, "block size")
	if err != nil {
		return 0, 0, cfg, nil, err
	}
	cfg.BlockBytes = int64(blockBytes)
	if cfg.Utilization, err = readFloat(r, "utilization"); err != nil {
		return 0, 0, cfg, nil, err
	}
	if cfg.OverloadTarget, err = readFloat(r, "overload target"); err != nil {
		return 0, 0, cfg, nil, err
	}
	bits, err := readUint(r, "generator bits")
	if err != nil {
		return 0, 0, cfg, nil, err
	}
	cfg.GeneratorBits = uint(bits)
	if cfg.Tolerance, err = readFloat(r, "tolerance"); err != nil {
		return 0, 0, cfg, nil, err
	}
	cacheBlocks, err := readUint(r, "cache blocks")
	if err != nil {
		return 0, 0, cfg, nil, err
	}
	cfg.CacheBlocks = int(cacheBlocks)
	measure, err := r.ReadByte()
	if err != nil {
		return 0, 0, cfg, nil, fmt.Errorf("store: measure-rounds flag: %w", err)
	}
	cfg.MeasureRounds = measure != 0
	redundancy, err := readUint(r, "redundancy")
	if err != nil {
		return 0, 0, cfg, nil, err
	}
	cfg.Redundancy = cm.Redundancy(redundancy)
	parityGroup, err := readUint(r, "parity group")
	if err != nil {
		return 0, 0, cfg, nil, err
	}
	cfg.ParityGroup = int(parityGroup)
	mdLen, err := readCount(r, 1, "metadata")
	if err != nil {
		return 0, 0, cfg, nil, err
	}
	mdBytes := make([]byte, mdLen)
	if _, err := io.ReadFull(r, mdBytes); err != nil {
		return 0, 0, cfg, nil, fmt.Errorf("store: checkpoint metadata: %w", err)
	}
	if md, err = cm.DecodeMetadataBinary(mdBytes); err != nil {
		return 0, 0, cfg, nil, err
	}
	if r.Len() != 0 {
		return 0, 0, cfg, nil, fmt.Errorf("store: checkpoint has %d trailing bytes", r.Len())
	}
	return lsn, epoch, cfg, md, nil
}

// readFloat reads a fixed 8-byte float64 and rejects NaNs (no config field
// is legitimately NaN, and NaN != NaN breaks comparisons downstream).
func readFloat(r *bytes.Reader, what string) (float64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, fmt.Errorf("store: %s: %w", what, err)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
	if math.IsNaN(v) {
		return 0, fmt.Errorf("store: %s is NaN", what)
	}
	return v, nil
}
