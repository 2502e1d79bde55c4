package cm

// This file wires a real data plane under the simulator: per-disk payload
// stores (internal/dataplane implements disk.PayloadStore) carry actual block
// bytes alongside the metadata inventories, and a DeliverySink receives each
// served block's bytes so a gateway can pace them to streaming clients.
//
// The layering is deliberate: cm knows only the disk.PayloadStore interface
// and a ContentFunc oracle, never the dataplane package itself. Payload bytes
// are deterministic functions of (seed, index) — what ingest writes is what
// the oracle computes — so redundant copies stay virtual (mirror/parity
// failover and rebuild re-materialize bytes from the oracle, modeling
// reconstruction) while direct reads, migrations, and recovery move the real
// stored bytes and surface real integrity failures.

import (
	"fmt"

	"scaddar/internal/bufpool"
	"scaddar/internal/disk"
	"scaddar/internal/placement"
	"scaddar/internal/reorg"
	"scaddar/internal/workload"
)

// ContentFunc is the deterministic payload oracle: the bytes of block index
// of the object seeded seed. Ingest writes exactly these bytes, so any layer
// can re-materialize or verify a block without reading another disk.
type ContentFunc func(seed, index uint64, blockBytes int64) []byte

// DeliverySink receives served block bytes, synchronously from Tick on the
// server's goroutine. It must not call back into the server.
type DeliverySink interface {
	// WantsPayload reports whether the sink needs bytes for a stream this
	// round; the server skips payload materialization for streams nobody is
	// listening to.
	WantsPayload(stream int) bool
	// Deliver hands over one served block's bytes, transferring ownership
	// of the payload's buffer reference: the sink must Release it exactly
	// once (directly, or by handing it down a pipeline that does) — pooled
	// reads land in shared refcounted buffers, and a leaked reference keeps
	// a whole coalesced span out of the pool. Returning evict=true tells
	// the server the client has fallen hopelessly behind: the stream is
	// stopped (backpressure protects the round, not the laggard).
	Deliver(stream, object int, index int, p bufpool.Payload) (evict bool)
	// StreamClosed reports a stream leaving StreamPlaying during Tick, with
	// its final state.
	StreamClosed(stream int, state StreamState)
}

// SetDeliverySink installs (or, with nil, removes) the delivery sink.
func (s *Server) SetDeliverySink(sink DeliverySink) { s.delivery = sink }

// AttachPayloads puts a real byte-bearing store under every disk and recon-
// ciles each store against the metadata inventory, which is the system of
// record:
//
//   - orphan payloads (bytes present, metadata absent) are deleted — the
//     signature of an ingest killed between its data append and its metadata
//     journal write; recovery garbage-collects the half-written block.
//   - missing payloads (metadata present, bytes absent) are re-materialized
//     from the content oracle — the store was lost or truncated behind the
//     journal's back.
//
// Subsequent ingests, migrations, and rebuilds keep data and metadata moving
// together. Call it after the catalog is populated (post-restore) and before
// the first Tick that should serve real bytes.
func (s *Server) AttachPayloads(factory disk.PayloadFactory, content ContentFunc) error {
	if factory == nil || content == nil {
		return fmt.Errorf("cm: AttachPayloads needs a store factory and a content oracle")
	}
	if s.payloads != nil {
		return fmt.Errorf("cm: payload stores are already attached")
	}
	s.payloads = factory
	s.content = content
	for i := 0; i < s.N(); i++ {
		d, err := s.array.Disk(i)
		if err != nil {
			return err
		}
		if err := s.attachPayload(d); err != nil {
			return err
		}
	}
	return nil
}

// attachPayload opens one disk's store, wires the fault injector into its
// real read path, and reconciles it against the disk's metadata inventory.
func (s *Server) attachPayload(d *disk.Disk) error {
	ps, err := s.payloads(d.ID())
	if err != nil {
		return fmt.Errorf("cm: payload store for disk %d: %w", d.ID(), err)
	}
	d.AttachPayload(ps)
	// Transient-error injection fires on the store's real read path so a
	// faulted Get is indistinguishable from a media error. During the round
	// scheduler's parallel batch the hook is suppressed: those reads
	// pre-rolled their fault at plan time on the owner goroutine (serveRead),
	// which keeps the injector's draw sequence deterministic — a concurrent
	// roll per disk would make which stream faults depend on goroutine
	// scheduling.
	if fi, ok := ps.(interface {
		SetReadFault(func(disk.BlockID) error)
	}); ok {
		fi.SetReadFault(func(disk.BlockID) error {
			if s.inBatchRead.Load() {
				return nil
			}
			if s.faults != nil && s.faults.transientError() {
				return fmt.Errorf("cm: injected transient read fault")
			}
			return nil
		})
	}
	return s.reconcilePayloads(d, ps)
}

// reconcilePayloads makes a store agree with its disk's metadata inventory
// (see AttachPayloads for the two repair directions).
func (s *Server) reconcilePayloads(d *disk.Disk, ps disk.PayloadStore) error {
	have := make(map[disk.BlockID]bool)
	for _, bid := range ps.Blocks() {
		have[bid] = true
		if !d.Has(bid) {
			if err := ps.Delete(bid); err != nil {
				return fmt.Errorf("cm: disk %d: GC orphan payload %d: %w", d.ID(), bid, err)
			}
		}
	}
	for _, bid := range d.Blocks() {
		if have[bid] {
			continue
		}
		data := s.contentFor(bid)
		if data == nil {
			return fmt.Errorf("cm: disk %d: block %d has no payload and no oracle seed", d.ID(), bid)
		}
		if err := ps.Put(bid, data); err != nil {
			return fmt.Errorf("cm: disk %d: re-materialize payload %d: %w", d.ID(), bid, err)
		}
	}
	return nil
}

// contentFor computes a block's oracle bytes from its packed ID, or nil when
// no oracle is attached or the owning object is unknown.
func (s *Server) contentFor(bid disk.BlockID) []byte {
	if s.content == nil {
		return nil
	}
	object := int(uint64(bid) >> 40)
	index := uint64(bid) & (1<<40 - 1)
	seed, ok := s.seedOfObject(object)
	if !ok {
		return nil
	}
	return s.content(seed, index, s.cfg.BlockBytes)
}

// putPayload writes a block's oracle bytes to a disk's store, if one is
// attached — the data half of every metadata Store call on the write path.
func (s *Server) putPayload(d *disk.Disk, bid disk.BlockID) error {
	ps := d.Payload()
	if ps == nil {
		return nil
	}
	data := s.contentFor(bid)
	if data == nil {
		return fmt.Errorf("cm: disk %d: no oracle bytes for block %d", d.ID(), bid)
	}
	return ps.Put(bid, data)
}

// deletePayload removes a block's bytes from a disk's store, if one is
// attached.
func (s *Server) deletePayload(d *disk.Disk, bid disk.BlockID) error {
	if ps := d.Payload(); ps != nil {
		return ps.Delete(bid)
	}
	return nil
}

// movePayload relocates one block's bytes for the reorganization executor:
// read the real bytes from the source store through the pooled path playback
// uses (falling back to the oracle when the read faults — a migration does
// not abort on a transient error), hand them to the destination by
// reference, release them, then drop the source copy. Metadata has already
// moved when this runs, so a crash between the two stores leaves at worst a
// duplicate or missing payload that AttachPayloads reconciles on reopen.
func (s *Server) movePayload(b placement.BlockRef, bid disk.BlockID, src, dst *disk.Disk) error {
	sps, dps := src.Payload(), dst.Payload()
	if sps == nil && dps == nil {
		return nil
	}
	var p bufpool.Payload
	if sps != nil {
		s.moveRead[0] = disk.BlockRead{Block: bid}
		sps.ReadBlocks(s.moveRead[:])
		// A faulted slot carries no payload (disk.BlockRead).
		p, s.moveRead[0] = s.moveRead[0].Payload, disk.BlockRead{}
	}
	defer p.Release()
	data := p.Data
	if data == nil {
		if data = s.contentFor(bid); data == nil {
			return fmt.Errorf("cm: migrate block %d: no source payload and no oracle", bid)
		}
	}
	if dps != nil {
		if err := dps.Put(bid, data); err != nil {
			return fmt.Errorf("cm: migrate block %d: %w", bid, err)
		}
	}
	if sps != nil {
		if err := sps.Delete(bid); err != nil {
			return fmt.Errorf("cm: migrate block %d: %w", bid, err)
		}
	}
	return nil
}

// newExecutor prepares a reorganization plan for execution, wiring the
// payload mover when a data plane is attached so every metadata move carries
// its real bytes.
func (s *Server) newExecutor(plan *reorg.Plan) (*reorg.Executor, error) {
	exec, err := reorg.NewExecutor(plan, s.blockIDOf, s.array.Disk)
	if err != nil {
		return nil, err
	}
	if s.payloads != nil {
		exec.SetPayloadMover(s.movePayload)
	}
	return exec, nil
}

// attachAddedPayloads opens stores for the disks a scale-up just attached
// (logical indices [from, N)). New disks start empty: a store directory
// left under the ID by a scale-up the journal never recorded was destroyed
// when the process started (serve: dataplane.Manager.Retain).
func (s *Server) attachAddedPayloads(from int) error {
	if s.payloads == nil {
		return nil
	}
	for i := from; i < s.N(); i++ {
		d, err := s.array.Disk(i)
		if err != nil {
			return err
		}
		if err := s.attachPayload(d); err != nil {
			return err
		}
	}
	return nil
}

// deliver hands one served block's payload to the delivery sink and
// applies its eviction verdict. The caller transfers its buffer reference:
// when no sink wants the stream the reference is released here, and an
// empty payload (no store on the serving path — failover, cache hit,
// metadata-only serve) is materialized from the oracle only when a sink is
// actually listening.
func (s *Server) deliver(st *Stream, p bufpool.Payload) {
	if s.delivery == nil || !s.delivery.WantsPayload(st.ID) {
		p.Release()
		return
	}
	if p.Data == nil {
		p = bufpool.Unpooled(s.contentFor(blockID(st.Object, uint64(st.Position))))
	}
	s.metrics.PayloadBytesServed += int64(len(p.Data))
	if s.delivery.Deliver(st.ID, st.Object, st.Position, p) {
		s.setState(st, StreamStopped)
		s.metrics.SessionsEvicted++
	}
}

// notifyClosed reports a stream's exit from StreamPlaying to the delivery
// sink. Tick calls it only for streams that entered the round playing, so it
// fires exactly once per transition.
func (s *Server) notifyClosed(st *Stream) {
	if s.delivery != nil && st.State != StreamPlaying {
		s.delivery.StreamClosed(st.ID, st.State)
	}
}

// PendingMove is one not-yet-executed migration move in catalog coordinates,
// as exported to locator clients.
type PendingMove struct {
	// Object names the block's owning object.
	Object int `json:"object"`
	// Index is the block's index within the object.
	Index uint64 `json:"index"`
	// From is the pre-operation logical disk the block is still served from.
	From int `json:"from"`
}

// LocatorState is everything a remote client needs to reconstruct the block
// location function and keep it current: the operation log (History binary
// codec), the strategy shape, the catalog, and the in-flight migration's
// pending set. Unlike ExportMetadata it is available mid-reorganization and
// mid-rebuild — that is its entire point: clients track a live reorg through
// deltas against this baseline instead of re-asking the server per block.
type LocatorState struct {
	// History is the scaling-operation log in its binary codec.
	History []byte
	// Bits is the generator width.
	Bits uint
	// Epoch counts complete redistributions.
	Epoch uint64
	// N is the current logical disk count.
	N int
	// Reorganizing reports an in-flight migration.
	Reorganizing bool
	// Objects is the catalog.
	Objects []workload.Object
	// Pending lists the blocks whose moves have not executed yet.
	Pending []PendingMove
	// PreOf translates post-removal logical indices to pre-removal ones
	// while a scale-down drain is in flight; nil otherwise.
	PreOf []int
	// Unhealthy lists the logical disks that are failed or rebuilding.
	Unhealthy []int
	// view is the pending set Pending and Reorganizing were taken from.
	view reorg.PendingView
}

// LocatorStateExport captures the current locator state. It requires a
// SCADDAR strategy (the operation log is what makes the state compact) and
// must be called from the server's owning goroutine.
func (s *Server) LocatorStateExport() (*LocatorState, error) {
	sc, ok := s.strat.(*placement.Scaddar)
	if !ok {
		return nil, fmt.Errorf("cm: strategy %q has no exportable operation log", s.strat.Name())
	}
	hist, err := sc.History().MarshalBinary()
	if err != nil {
		return nil, err
	}
	ls := &LocatorState{
		History:   hist,
		Bits:      sc.Bits(),
		Epoch:     sc.Epoch(),
		N:         s.N(),
		Objects:   s.Catalog(),
		Unhealthy: s.UnhealthyDisks(),
	}
	if s.migration != nil && s.removalPreOf != nil {
		ls.PreOf = append([]int(nil), s.removalPreOf...)
	}
	return ls.AsOf(s.PendingView()), nil
}

// UnhealthyDisks lists the logical disks that are failed or rebuilding, in
// ascending order; nil while every disk is healthy. Owner goroutine only.
func (s *Server) UnhealthyDisks() []int {
	var out []int
	for i := 0; i < s.array.N(); i++ {
		if d, err := s.array.Disk(i); err == nil && d.Health() != disk.Healthy {
			out = append(out, i)
		}
	}
	return out
}

// PendingView returns the in-flight migration's pending set as of now (the
// zero view outside a migration). Owner goroutine only; the view may be
// handed to any goroutine and stays a point-in-time value.
func (s *Server) PendingView() reorg.PendingView {
	if s.migration == nil {
		return reorg.PendingView{}
	}
	return s.migration.View()
}

// AsOf returns a copy of the state with Pending and Reorganizing taken from
// a view of the same migration, sharing everything else. It is how a holder
// of one export (taken when the migration started) gets the export of any
// later round without going back to the server: rounds that only move blocks
// change nothing else. Safe on any goroutine.
func (ls *LocatorState) AsOf(view reorg.PendingView) *LocatorState {
	if view == ls.view {
		return ls
	}
	out := *ls
	out.view = view
	out.Reorganizing = view.Len() > 0
	out.Pending = nil
	if out.Reorganizing {
		objectOf := make(map[uint64]int, len(ls.Objects))
		for _, o := range ls.Objects {
			objectOf[o.Seed] = o.ID
		}
		out.Pending = make([]PendingMove, 0, view.Len())
		view.Each(func(m reorg.Move) {
			if object, ok := objectOf[m.Block.Seed]; ok {
				out.Pending = append(out.Pending, PendingMove{Object: object, Index: m.Block.Index, From: m.From})
			}
		})
	}
	return &out
}
