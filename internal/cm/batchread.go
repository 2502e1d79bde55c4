package cm

// This file is the round scheduler's batched read executor. Phase 1 of
// Tick (serveRead) plans every store-backed stream read into s.roundPlan
// without touching a segment file; phase 2 (executeBatchReads) scatters
// the plan into per-disk batches and runs them in parallel — one
// coalescing ReadBlocks call per disk — and phase 3 (deliverBatch) walks
// the plan in stream-ID order, handing each pooled payload to the delivery
// sink or recovering through failover. Planning, budget accounting, and
// delivery all stay on the owner goroutine in stream order, so the
// simulation remains deterministic; only the file I/O fans out.

import (
	"scaddar/internal/bufpool"
	"scaddar/internal/disk"
	"scaddar/internal/par"
	"scaddar/internal/placement"
)

// plannedRead is one store-backed stream read queued by phase 1.
type plannedRead struct {
	st      *Stream
	blocks  int // owning object's block count, for advanceStream
	ref     placement.BlockRef
	bid     disk.BlockID
	logical int
	d       *disk.Disk
	slot    int // index into the scattered request array, set by phase 2
}

// readGroup is one disk's contiguous slice of the scattered request array.
type readGroup struct {
	ps     disk.PayloadStore
	lo, hi int
}

// runBatchedReads executes the round plan: per-disk parallel batch I/O,
// then in-order delivery.
func (s *Server) runBatchedReads(used, caps []int) error {
	s.executeBatchReads()
	return s.deliverBatch(used, caps)
}

// executeBatchReads groups s.roundPlan by serving disk with a counting
// scatter (no sort, no allocation in steady state), then runs one
// ReadBlocks batch per disk, in parallel across disks when more than one
// disk has work.
func (s *Server) executeBatchReads() {
	n := s.N()
	if cap(s.batchCounts) < n {
		s.batchCounts = make([]int, n)
		s.batchStarts = make([]int, n)
		s.batchStores = make([]disk.PayloadStore, n)
	}
	counts := s.batchCounts[:n]
	starts := s.batchStarts[:n]
	stores := s.batchStores[:n]
	for i := range counts {
		counts[i] = 0
		stores[i] = nil
	}
	for i := range s.roundPlan {
		p := &s.roundPlan[i]
		counts[p.logical]++
		// Every planned read's disk had a payload store at plan time.
		stores[p.logical] = p.d.Payload()
	}
	off := 0
	for i, c := range counts {
		starts[i] = off
		off += c
	}
	if cap(s.batchReqs) < len(s.roundPlan) {
		s.batchReqs = make([]disk.BlockRead, len(s.roundPlan))
	}
	reqs := s.batchReqs[:len(s.roundPlan)]
	s.batchGroups = s.batchGroups[:0]
	for i, c := range counts {
		if c == 0 {
			continue
		}
		s.batchGroups = append(s.batchGroups, readGroup{
			ps: stores[i], lo: starts[i], hi: starts[i] + c,
		})
	}
	for i := range s.roundPlan {
		p := &s.roundPlan[i]
		slot := starts[p.logical]
		starts[p.logical]++
		p.slot = slot
		reqs[slot] = disk.BlockRead{Block: p.bid}
	}

	groups := s.batchGroups
	s.inBatchRead.Store(true)
	if len(groups) == 1 {
		groups[0].ps.ReadBlocks(reqs[groups[0].lo:groups[0].hi])
	} else {
		par.RangesN(len(groups), par.Workers(), func(lo, hi int) {
			for gi := lo; gi < hi; gi++ {
				g := groups[gi]
				g.ps.ReadBlocks(reqs[g.lo:g.hi])
			}
		})
	}
	s.inBatchRead.Store(false)
}

// deliverBatch walks the round plan in stream-ID order, delivering each
// successful read's pooled payload and recovering failed reads (corrupt
// frames, real media errors) through failover. The budget slot for each
// attempt was charged at plan time; a failed attempt keeps its slot, as a
// real disk would have spent the service time, and failover charges its
// own sources.
func (s *Server) deliverBatch(used, caps []int) error {
	reqs := s.batchReqs[:len(s.roundPlan)]
	for i := range s.roundPlan {
		p := &s.roundPlan[i]
		st := p.st
		res := &reqs[p.slot]
		if res.Err == nil {
			s.deliver(st, res.Payload)
			if st.State == StreamPlaying {
				s.advanceStream(st, p.blocks, true)
			}
			s.notifyClosed(st)
			continue
		}
		// The real read failed. The optimistic cache entry from plan time
		// must not serve a block the store could not produce.
		s.blockCache.Remove(p.bid)
		s.metrics.TransientReadErrors++
		p.d.RecordFailoverRead()
		outcome, err := s.failover(p.ref, p.bid, used, caps, true)
		if err != nil {
			s.releaseBatchFrom(i + 1)
			return err
		}
		switch outcome {
		case readServed:
			s.deliver(st, bufpool.Payload{})
			if st.State == StreamPlaying {
				s.advanceStream(st, p.blocks, true)
			}
		case readHiccup:
			st.Hiccups++
			s.metrics.Hiccups++
		case readLost:
			s.metrics.UnrecoverableReads++
			s.advanceStream(st, p.blocks, false)
		}
		s.notifyClosed(st)
	}
	return nil
}

// releaseBatchFrom returns the payloads of not-yet-delivered slots to the
// pool when delivery aborts on an error.
func (s *Server) releaseBatchFrom(from int) {
	reqs := s.batchReqs[:len(s.roundPlan)]
	for i := from; i < len(s.roundPlan); i++ {
		reqs[s.roundPlan[i].slot].Payload.Release()
	}
}
