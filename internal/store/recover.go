package store

// Crash recovery: rebuild a cm.Server from the newest valid checkpoint plus
// the journal tail. Checkpoint restore re-derives every block location by
// computation (cm.RestoreServer); the tail replays each journaled event
// through the server's replay entry points, which mirror the original
// mutations deterministically — migrated blocks are re-executed by (object,
// index) rather than by re-planning, so the recovered locator agrees
// block-for-block with the survivor.

import (
	"fmt"

	"scaddar/internal/cm"
	"scaddar/internal/placement"
)

// Recover rebuilds the server this data directory holds. x0 must be built
// over the same generator family as the original server (the store cannot
// persist a function). On success the recovered server is integrity-verified
// and — unless the store is ReadOnly — wired to journal its future events
// here. Returns ErrNoCheckpoint when the directory has no usable base state.
func (s *Store) Recover(x0 placement.X0Func) (*cm.Server, *RecoveryInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.haveCkpt {
		return nil, nil, fmt.Errorf("%w in %s", ErrNoCheckpoint, s.cfg.Dir)
	}
	srv, err := cm.RestoreServer(s.serverCfg, s.metadata, x0)
	if err != nil {
		return nil, nil, err
	}
	for _, rec := range s.tail {
		ev, err := DecodeEvent(rec.event)
		if err != nil {
			return nil, nil, fmt.Errorf("store: event at LSN %d: %w", rec.lsn, err)
		}
		if err := ApplyEvent(srv, ev); err != nil {
			return nil, nil, fmt.Errorf("store: replaying %s at LSN %d: %w", ev.Kind, rec.lsn, err)
		}
		s.observeReplay(ev)
	}
	if err := srv.VerifyIntegrity(); err != nil {
		return nil, nil, fmt.Errorf("store: recovered server failed verification: %w", err)
	}
	info := s.recovery
	info.CheckpointLSN = s.ckptLSN
	info.ReplayedEvents = len(s.tail)
	info.LSN = s.nextLSN - 1
	s.recovery = info
	if !s.cfg.ReadOnly {
		srv.SetEventSink(s.Sink())
	}
	return srv, &info, nil
}

// ApplyEvent re-executes one journaled event against a recovering server.
// The dispatch inverts the emit sites in package cm exactly: every event a
// live server journals must replay here, or recovery diverges. Follower
// replicas use the same dispatch to apply streamed journal records, which
// is what keeps a replica byte-identical to leader-side recovery.
func ApplyEvent(srv *cm.Server, ev cm.Event) error {
	switch ev.Kind {
	case cm.EventObjectAdded:
		return srv.AddObject(ev.Object)
	case cm.EventObjectRemoved:
		return srv.RemoveObject(ev.ObjectID)
	case cm.EventIngestCommitted:
		return srv.ReplayIngestCommit(ev.Object)
	case cm.EventScaleUpStarted:
		if ev.Profile != nil {
			_, err := srv.ScaleUpProfile(ev.Count, *ev.Profile)
			return err
		}
		_, err := srv.ScaleUp(ev.Count)
		return err
	case cm.EventScaleDownStarted:
		_, err := srv.ScaleDown(ev.Disks...)
		return err
	case cm.EventRedistributeStarted:
		_, err := srv.FullRedistribute()
		return err
	case cm.EventBlocksMigrated:
		return srv.ReplayMigratedBlocks(ev.Moves)
	case cm.EventReorgCompleted:
		return srv.FinishReorganization()
	case cm.EventDiskFailed:
		return srv.ReplayDiskFailed(ev.Disk, ev.Lost)
	case cm.EventDiskRepaired:
		return srv.RepairDisk(ev.Disk)
	case cm.EventBlocksRebuilt:
		return srv.ReplayRebuiltItems(ev.Rebuilt)
	default:
		return fmt.Errorf("store: no replay for event kind %d", ev.Kind)
	}
}
