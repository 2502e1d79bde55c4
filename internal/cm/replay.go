package cm

// Replay helpers: the mutation entry points the durable store uses to
// re-apply journaled events onto a server restored from a checkpoint. They
// mirror the live paths but take the journaled facts as authoritative —
// which specific moves executed, which blocks were lost — instead of
// recomputing them, because the live computations depend on state (plan
// iteration order, in-flight recordings) a restarted process no longer has.
//
// Known limitation, documented rather than journaled around: a recording
// session in flight across a disk failure/repair keeps per-round progress
// only in memory, so rebuild items the survivor queued for its uncommitted
// blocks cannot be reconstructed here. Scaling and ingest are mutually
// exclusive, so this affects only fail/repair under an active ingest.

import (
	"fmt"

	"scaddar/internal/disk"
	"scaddar/internal/placement"
	"scaddar/internal/workload"
)

// ReplayMigratedBlocks re-executes the journaled subset of pending
// reorganization moves, by catalog coordinates and not by plan position: a
// plan repeats across restarts (the planner walks the catalogue by object ID),
// but a journal written by a build whose plans did not must still replay.
func (s *Server) ReplayMigratedBlocks(moves []BlockPos) error {
	if s.migration == nil {
		return fmt.Errorf("cm: replay: no reorganization in flight")
	}
	for _, mv := range moves {
		seed, ok := s.seedOfObject(mv.Object)
		if !ok {
			return fmt.Errorf("%w: object %d", ErrUnknownObject, mv.Object)
		}
		if err := s.migration.ExecuteBlock(placement.BlockRef{Seed: seed, Index: mv.Index}); err != nil {
			return fmt.Errorf("cm: replay: %w", err)
		}
		s.metrics.BlocksMigrated++
	}
	return nil
}

// ReplayRebuiltItems marks the journaled rebuild items complete, applying
// their physical effect (primary copies are re-stored on their targets) and
// repairing any Rebuilding disk whose queue drains.
func (s *Server) ReplayRebuiltItems(items []RebuildPos) error {
	rb := s.rebuild
	if rb == nil {
		return fmt.Errorf("cm: replay: no rebuild in flight")
	}
	for _, rp := range items {
		seed, ok := s.seedOfObject(rp.Object)
		if !ok {
			return fmt.Errorf("%w: object %d", ErrUnknownObject, rp.Object)
		}
		key := rebuildKey{kind: rebuildKind(rp.Kind), ref: placement.BlockRef{Seed: seed, Index: rp.Index}}
		found := -1
		for i, it := range rb.items {
			if it.key == key {
				found = i
				break
			}
		}
		if found < 0 {
			return fmt.Errorf("cm: replay: rebuild item kind %d for block %d/%d is not pending",
				rp.Kind, rp.Object, rp.Index)
		}
		it := rb.items[found]
		if it.key.kind == rebuildPrimary {
			target, err := s.array.Disk(it.target)
			if err != nil {
				return err
			}
			if err := target.Store(it.bid); err != nil {
				return fmt.Errorf("cm: replay: rebuild: %w", err)
			}
			target.RecordMigration()
			s.metrics.BlocksRebuilt++
		}
		delete(rb.pending, it.key)
		rb.items = append(rb.items[:found], rb.items[found+1:]...)
	}
	return s.sweepRebuiltDisks()
}

// ReplayIngestCommit restores a committed recording: like AddObject, but
// tolerant of a degraded array, since a recording that started on a healthy
// array may commit after a disk has failed. Blocks homed on a failed disk
// are handled the way the failure itself would have: recorded lost without
// redundancy, queued for rebuild with it.
func (s *Server) ReplayIngestCommit(obj workload.Object) error {
	if _, dup := s.objects[obj.ID]; dup {
		return fmt.Errorf("cm: duplicate object ID %d", obj.ID)
	}
	if id, dup := s.seedOf[obj.Seed]; dup && id != obj.ID {
		return fmt.Errorf("cm: duplicate object seed %d", obj.Seed)
	}
	if obj.Blocks < 1 {
		return fmt.Errorf("cm: object %d has no blocks", obj.ID)
	}
	if obj.BlockBytes != s.cfg.BlockBytes {
		return fmt.Errorf("cm: object %d block size %d != server block size %d",
			obj.ID, obj.BlockBytes, s.cfg.BlockBytes)
	}
	if obj.ID < 0 || obj.ID >= 1<<24 || uint64(obj.Blocks) >= 1<<40 {
		return fmt.Errorf("cm: object %d outside addressable range", obj.ID)
	}
	for i := 0; i < obj.Blocks; i++ {
		ref := placement.BlockRef{Seed: obj.Seed, Index: uint64(i)}
		logical := s.strat.Disk(ref)
		d, err := s.array.Disk(logical)
		if err != nil {
			return err
		}
		bid := blockID(obj.ID, uint64(i))
		if d.Health() == disk.Failed {
			if s.cfg.Redundancy == RedundancyNone {
				s.lost[bid] = true
			} else {
				s.ensureRebuilder().add(rebuildItem{
					key:    rebuildKey{kind: rebuildPrimary, ref: ref},
					bid:    bid,
					target: logical,
				})
			}
			continue
		}
		if err := d.Store(bid); err != nil {
			return err
		}
	}
	s.listObject(obj)
	return nil
}

// ReplayDiskFailed re-applies a journaled disk failure. The journaled lost
// list is authoritative: the survivor may have recorded blocks of an
// in-flight recording this restored server cannot enumerate.
func (s *Server) ReplayDiskFailed(logical int, lost []BlockPos) error {
	if err := s.failDisk(logical, true); err != nil {
		return err
	}
	for _, lp := range lost {
		s.lost[blockID(lp.Object, lp.Index)] = true
	}
	return nil
}
