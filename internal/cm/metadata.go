package cm

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

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
	for i := 1; i < len(ids); i++ {
		for k := i; k > 0 && ids[k] < ids[k-1]; k-- {
			ids[k], ids[k-1] = ids[k-1], ids[k]
		}
	}
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
func EncodeMetadata(md *Metadata) ([]byte, error) {
	return json.Marshal(md)
}

// DecodeMetadata parses JSON metadata.
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
		if obj.ID < 0 || obj.Blocks < 0 || obj.BlockBytes < 0 || obj.BitrateBitsPerSec < 0 {
			return nil, fmt.Errorf("cm: object %d has negative fields", obj.ID)
		}
		dst = binary.AppendUvarint(dst, uint64(obj.ID))
		dst = binary.AppendUvarint(dst, obj.Seed)
		dst = binary.AppendUvarint(dst, uint64(obj.Blocks))
		dst = binary.AppendUvarint(dst, uint64(obj.BlockBytes))
		dst = binary.AppendUvarint(dst, uint64(obj.BitrateBitsPerSec))
	}
	return dst, nil
}

// DecodeMetadataBinary parses the binary metadata form, validating it
// structurally (the embedded History codec re-validates the operation log by
// replay).
func DecodeMetadataBinary(data []byte) (*Metadata, error) {
	if len(data) < len(metadataMagic) || string(data[:4]) != string(metadataMagic[:]) {
		return nil, fmt.Errorf("cm: binary metadata lacks magic %q", metadataMagic)
	}
	r := bytes.NewReader(data[4:])
	version, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("cm: binary metadata: %w", err)
	}
	if version != metadataVersion {
		return nil, fmt.Errorf("cm: metadata version %d, want %d", version, metadataVersion)
	}
	bits, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("cm: binary metadata: %w", err)
	}
	if bits > 64 {
		return nil, fmt.Errorf("cm: binary metadata declares %d generator bits", bits)
	}
	epoch, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("cm: binary metadata: %w", err)
	}
	histLen, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("cm: binary metadata: %w", err)
	}
	if histLen > uint64(r.Len()) {
		return nil, fmt.Errorf("cm: binary metadata declares %d history bytes, %d remain", histLen, r.Len())
	}
	hist := make([]byte, histLen)
	if _, err := io.ReadFull(r, hist); err != nil {
		return nil, fmt.Errorf("cm: binary metadata: %w", err)
	}
	history := &scaddar.History{}
	if err := history.UnmarshalBinary(hist); err != nil {
		return nil, fmt.Errorf("cm: binary metadata history: %w", err)
	}
	nObjects, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("cm: binary metadata: %w", err)
	}
	// Five varints of at least one byte each per object: reject forged
	// counts before allocating.
	if nObjects > uint64(r.Len())/5 {
		return nil, fmt.Errorf("cm: binary metadata declares %d objects in %d bytes", nObjects, r.Len())
	}
	md := &Metadata{Version: int(version), History: history, Epoch: epoch, Bits: uint(bits)}
	for i := uint64(0); i < nObjects; i++ {
		var fields [5]uint64
		for k := range fields {
			fields[k], err = binary.ReadUvarint(r)
			if err != nil {
				return nil, fmt.Errorf("cm: binary metadata object %d: %w", i, err)
			}
		}
		if fields[0] > uint64(1)<<62 || fields[2] > uint64(1)<<62 || fields[3] > uint64(1)<<62 || fields[4] > uint64(1)<<62 {
			return nil, fmt.Errorf("cm: binary metadata object %d has out-of-range fields", i)
		}
		md.Objects = append(md.Objects, workload.Object{
			ID:                int(fields[0]),
			Seed:              fields[1],
			Blocks:            int(fields[2]),
			BlockBytes:        int64(fields[3]),
			BitrateBitsPerSec: int64(fields[4]),
		})
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("cm: binary metadata has %d trailing bytes", r.Len())
	}
	return md, nil
}
