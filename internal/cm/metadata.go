package cm

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"slices"

	"scaddar/internal/frame"
	"scaddar/internal/placement"
	"scaddar/internal/scaddar"
	"scaddar/internal/workload"
)

// This file implements server metadata persistence — the operational payoff
// of SCADDAR's no-directory design. The durable state of the whole server
// is the object catalog (IDs, seeds, sizes) plus the scaling-operation log;
// block locations are NOT stored anywhere. Restore rebuilds the placement
// strategy from the log and re-derives every block's disk, and
// VerifyIntegrity proves the physical inventory matches.

// Metadata is the durable state of a Server.
type Metadata struct {
	// Version guards the format.
	Version int `json:"version"`
	// History is the scaling-operation log.
	History *scaddar.History `json:"history"`
	// Epoch counts complete redistributions (the placement strategy's
	// rebaseline epoch).
	Epoch uint64 `json:"epoch,omitempty"`
	// Bits is the generator width the strategy was configured with.
	Bits uint `json:"bits"`
	// Objects is the catalog.
	Objects []workload.Object `json:"objects"`
}

// metadataVersion is the current format version.
const metadataVersion = 1

// ExportMetadata captures the server's durable state. It requires a SCADDAR
// placement strategy (the schemes without an operation log have nothing
// this compact to export) and a quiescent, healthy server: no migration in
// flight, no failed or rebuilding disk, no pending rebuild work, and no
// lost blocks. Metadata carries none of that state, so restoring it yields
// an all-healthy array — exporting while any of it exists would produce a
// checkpoint that contradicts the journaled fail/rebuild events layered on
// top (a real system would persist the pending sets too; this simulator
// keeps the boundary clean instead). Callers treat ErrBusy as "retry after
// the drain"; note that lost blocks under RedundancyNone never drain, so
// such a server can no longer be checkpointed — the journal, which records
// the loss, remains the durable record.
func (s *Server) ExportMetadata() (*Metadata, error) {
	if s.Reorganizing() || len(s.pendingRemoval) > 0 {
		return nil, fmt.Errorf("%w: cannot export metadata during a reorganization", ErrBusy)
	}
	if s.Degraded() {
		return nil, fmt.Errorf("%w: cannot export metadata while the array is degraded "+
			"(failed or rebuilding disk, pending rebuild work, or lost blocks)", ErrBusy)
	}
	sc, ok := s.strat.(*placement.Scaddar)
	if !ok {
		return nil, fmt.Errorf("cm: strategy %q has no exportable operation log", s.strat.Name())
	}
	md := &Metadata{
		Version: metadataVersion,
		History: sc.History().Clone(),
		Epoch:   sc.Epoch(),
		Bits:    sc.Bits(),
	}
	// Export objects in ID order for stable output.
	ids := make([]int, 0, len(s.objects))
	for id := range s.objects {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		md.Objects = append(md.Objects, s.objects[id])
	}
	return md, nil
}

// MarshalJSON is provided by the embedded fields; Metadata round-trips
// through encoding/json directly.

// RestoreServer rebuilds a server from exported metadata: the strategy is
// reconstructed from the operation log (placement.RestoreScaddar), every
// object's blocks are re-placed by computation alone, and
// the result is integrity-verified. x0 must be built over the same
// generator family and seeds as the original server.
func RestoreServer(cfg Config, md *Metadata, x0 placement.X0Func) (*Server, error) {
	if md == nil {
		return nil, fmt.Errorf("cm: nil metadata")
	}
	if md.Version != metadataVersion {
		return nil, fmt.Errorf("cm: metadata version %d, want %d", md.Version, metadataVersion)
	}
	if md.History == nil {
		return nil, fmt.Errorf("cm: metadata has no history")
	}
	strat, err := placement.RestoreScaddar(md.History, md.Epoch, md.Bits, x0)
	if err != nil {
		return nil, err
	}
	srv, err := NewServer(cfg, strat)
	if err != nil {
		return nil, err
	}
	// The budget, if tracked, resumes from the recorded history.
	if srv.budget != nil {
		if err := srv.budget.Reset(md.History.N0()); err != nil {
			return nil, err
		}
		for j := 1; j <= md.History.Ops(); j++ {
			if err := srv.budget.Record(md.History.NAt(j)); err != nil {
				return nil, err
			}
		}
	}
	for _, obj := range md.Objects {
		if err := srv.AddObject(obj); err != nil {
			return nil, err
		}
	}
	if err := srv.VerifyIntegrity(); err != nil {
		return nil, fmt.Errorf("cm: restored server failed verification: %w", err)
	}
	return srv, nil
}

// EncodeMetadata serializes metadata as JSON.
//
//unreached:testsupport the documented debugging form; the store writes EncodeMetadataBinary's
func EncodeMetadata(md *Metadata) ([]byte, error) {
	return json.Marshal(md)
}

// DecodeMetadata parses JSON metadata.
//
//unreached:testsupport see EncodeMetadata
func DecodeMetadata(data []byte) (*Metadata, error) {
	var md Metadata
	if err := json.Unmarshal(data, &md); err != nil {
		return nil, err
	}
	return &md, nil
}

// metadataMagic introduces the binary metadata form ("SCADDAR metadata").
var metadataMagic = [4]byte{'S', 'C', 'M', 'D'}

// EncodeMetadataBinary serializes metadata in the compact binary form the
// durable store's checkpoints use: the History binary codec wrapped with the
// epoch, generator width, and varint-packed object catalog.
func EncodeMetadataBinary(md *Metadata) ([]byte, error) {
	if md == nil {
		return nil, fmt.Errorf("cm: nil metadata")
	}
	if md.Version != metadataVersion {
		return nil, fmt.Errorf("cm: metadata version %d, want %d", md.Version, metadataVersion)
	}
	if md.History == nil {
		return nil, fmt.Errorf("cm: metadata has no history")
	}
	hist, err := md.History.MarshalBinary()
	if err != nil {
		return nil, err
	}
	dst := append([]byte(nil), metadataMagic[:]...)
	dst = binary.AppendUvarint(dst, uint64(md.Version))
	dst = binary.AppendUvarint(dst, uint64(md.Bits))
	dst = binary.AppendUvarint(dst, md.Epoch)
	dst = binary.AppendUvarint(dst, uint64(len(hist)))
	dst = append(dst, hist...)
	dst = binary.AppendUvarint(dst, uint64(len(md.Objects)))
	for _, obj := range md.Objects {
		if dst, err = AppendObject(dst, obj); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// AppendObject appends a catalogue entry in the one form every durable
// format carries it in — five uvarints: ID, seed, blocks, block bytes,
// bitrate — which checkpoints (here) and journal events (package store)
// share.
func AppendObject(dst []byte, obj workload.Object) ([]byte, error) {
	if obj.ID < 0 || obj.Blocks < 0 || obj.BlockBytes < 0 || obj.BitrateBitsPerSec < 0 {
		return nil, fmt.Errorf("cm: object %d has negative fields", obj.ID)
	}
	dst = binary.AppendUvarint(dst, uint64(obj.ID))
	dst = binary.AppendUvarint(dst, obj.Seed)
	dst = binary.AppendUvarint(dst, uint64(obj.Blocks))
	dst = binary.AppendUvarint(dst, uint64(obj.BlockBytes))
	return binary.AppendUvarint(dst, uint64(obj.BitrateBitsPerSec)), nil
}

// ReadObject reads what AppendObject wrote. Like every cursor read it
// reports failure through c, not here.
func ReadObject(c *frame.Cursor) workload.Object {
	return workload.Object{
		ID:                c.Int("object ID"),
		Seed:              c.Uvarint("object seed"),
		Blocks:            c.Int("object blocks"),
		BlockBytes:        c.Int64("object block bytes"),
		BitrateBitsPerSec: c.Int64("object bitrate"),
	}
}

// DecodeMetadataBinary parses the binary metadata form, validating it
// structurally (the embedded History codec re-validates the operation log by
// replay).
func DecodeMetadataBinary(data []byte) (*Metadata, error) {
	if len(data) < len(metadataMagic) || string(data[:4]) != string(metadataMagic[:]) {
		return nil, fmt.Errorf("cm: binary metadata lacks magic %q", metadataMagic)
	}
	c := frame.Cursor{Buf: data[4:]}
	md := &Metadata{Version: c.Int("version"), History: &scaddar.History{}}
	if c.OK() && md.Version != metadataVersion {
		return nil, fmt.Errorf("cm: metadata version %d, want %d", md.Version, metadataVersion)
	}
	md.Bits = uint(c.Int("generator bits"))
	md.Epoch = c.Uvarint("epoch")
	hist := c.Bytes(c.Count(1, "history length"), "history")
	// Five varints of at least one byte each per object.
	for n := c.Count(5, "object count"); n > 0; n-- {
		md.Objects = append(md.Objects, ReadObject(&c))
	}
	if err := c.Done("cm: binary metadata"); err != nil {
		return nil, err
	}
	if md.Bits > 64 {
		return nil, fmt.Errorf("cm: binary metadata declares %d generator bits", md.Bits)
	}
	if err := md.History.UnmarshalBinary(hist); err != nil {
		return nil, fmt.Errorf("cm: binary metadata history: %w", err)
	}
	return md, nil
}
