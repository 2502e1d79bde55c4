package cm

import (
	"fmt"

	"scaddar/internal/placement"
	"scaddar/internal/workload"
)

// This file implements the write path: ingesting a new object's blocks at a
// fixed rate while the server keeps serving streams. The paper cites disk
// scheduling for *recording* continuous media (Aref et al.) as orthogonal
// work it would reuse; here ingest shares each round's per-disk I/O budget
// with stream reads, with reads taking priority and writes back-pressured.

// Ingest is one in-progress recording session.
type Ingest struct {
	// Object is the object being recorded; its Blocks field is the final
	// size, announced up front.
	Object workload.Object
	// Rate is the target blocks written per round (the encoding rate).
	Rate int
	// Written is the number of blocks stored so far.
	Written int
	// Stalls counts rounds in which back-pressure delayed at least one
	// scheduled write.
	Stalls int
	// Done reports completion; the object has moved to the catalog.
	Done bool
}

// StartIngest begins recording a new object at the given rate (blocks per
// round). The object's identity, seed, and final size must be declared up
// front — the seed is what makes every block's location computable. Blocks
// are written by subsequent Tick calls using spare disk bandwidth. Scaling
// operations are rejected while an ingest is active (and vice versa) to
// keep reorganization plans over a stable block population.
func (s *Server) StartIngest(obj workload.Object, rate int) (*Ingest, error) {
	if s.Reorganizing() || len(s.pendingRemoval) > 0 {
		return nil, fmt.Errorf("cm: cannot ingest during a reorganization")
	}
	if s.Degraded() {
		return nil, fmt.Errorf("cm: cannot start an ingest while the array is degraded")
	}
	if rate < 1 {
		return nil, fmt.Errorf("cm: ingest rate %d blocks/round", rate)
	}
	if _, dup := s.objects[obj.ID]; dup {
		return nil, fmt.Errorf("cm: duplicate object ID %d", obj.ID)
	}
	if _, dup := s.seedOf[obj.Seed]; dup {
		return nil, fmt.Errorf("cm: duplicate object seed %d", obj.Seed)
	}
	for _, in := range s.ingests {
		if !in.Done && (in.Object.ID == obj.ID || in.Object.Seed == obj.Seed) {
			return nil, fmt.Errorf("cm: object %d already being ingested", obj.ID)
		}
	}
	if obj.Blocks < 1 {
		return nil, fmt.Errorf("cm: object %d has no blocks", obj.ID)
	}
	if obj.BlockBytes != s.cfg.BlockBytes {
		return nil, fmt.Errorf("cm: object %d block size %d != server block size %d",
			obj.ID, obj.BlockBytes, s.cfg.BlockBytes)
	}
	if obj.ID < 0 || obj.ID >= 1<<24 || uint64(obj.Blocks) >= 1<<40 {
		return nil, fmt.Errorf("cm: object %d outside addressable range", obj.ID)
	}
	in := &Ingest{Object: obj, Rate: rate}
	s.ingests = append(s.ingests, in)
	s.recording++
	// Reserve the identity immediately so concurrent AddObject/StartIngest
	// calls cannot collide.
	s.seedOf[obj.Seed] = obj.ID
	return in, nil
}

// Ingesting reports whether any recording session is still active.
func (s *Server) Ingesting() bool { return s.recording > 0 }

// stepIngests writes up to each session's rate this round, consuming spare
// per-disk budget tracked in used against the per-disk capacities.
func (s *Server) stepIngests(used []int, caps []int) error {
	for _, in := range s.ingests {
		if in.Done {
			continue
		}
		wrote := 0
		stalled := false
		for wrote < in.Rate && in.Written < in.Object.Blocks {
			ref := placement.BlockRef{Seed: in.Object.Seed, Index: uint64(in.Written)}
			logical := s.strat.Disk(ref)
			if used[logical] >= caps[logical] {
				stalled = true
				break // back-pressure: retry next round
			}
			d, err := s.array.Disk(logical)
			if err != nil {
				return err
			}
			if err := d.Store(blockID(in.Object.ID, uint64(in.Written))); err != nil {
				return err
			}
			// Data and metadata move together: the block's real bytes land
			// in the disk's payload store in the same step. (A crash between
			// the two leaves an orphan payload the recovery reconcile GCs.)
			if err := s.putPayload(d, blockID(in.Object.ID, uint64(in.Written))); err != nil {
				return err
			}
			used[logical]++
			in.Written++
			wrote++
			s.metrics.BlocksIngested++
		}
		if stalled {
			in.Stalls++
		}
		if in.Written == in.Object.Blocks {
			in.Done = true
			s.recording--
			s.listObject(in.Object)
			s.emit(Event{Kind: EventIngestCommitted, Object: in.Object})
		}
	}
	return nil
}
