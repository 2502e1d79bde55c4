// Package reorg turns a scaling operation into an executable block-movement
// plan — the paper's redistribution function RF() — and executes it against
// a simulated disk array, either all at once or throttled round by round so
// the continuous-media server keeps serving streams while it reorganizes
// ("no prior work has addressed such redistribution while the CM server is
// online").
//
// Plans are expressed over logical disk indices with a precise execution
// convention:
//
//   - PlanAdd returns moves valid AFTER the physical array has grown: old
//     disks keep their logical indices and destinations include the new
//     ones. Grow the array, then execute.
//   - PlanRemove returns moves valid BEFORE the physical array shrinks:
//     sources are the doomed disks and destinations are survivors, both in
//     the pre-removal numbering. Execute (drain), then detach the disks.
//
// This matches operational reality: added disks are attached empty before
// data flows to them, and disks being retired are drained before they are
// pulled.
package reorg

import (
	"fmt"
	"slices"
	"sync/atomic"

	"scaddar/internal/disk"
	"scaddar/internal/placement"
)

// Move relocates one block between logical disk indices (see the package
// comment for when each index space is valid).
type Move struct {
	Block placement.BlockRef
	From  int
	To    int
}

// Plan is the ordered list of block movements implementing one scaling
// operation.
type Plan struct {
	// NBefore and NAfter are the disk counts around the operation.
	NBefore, NAfter int
	// Moves lists every block that changes disks.
	Moves []Move
	// Blocks is the total number of blocks considered, for movement-
	// fraction reporting.
	Blocks int
	// PreOf, in a removal's plan only, maps the strategy's post-removal
	// logical indices to the pre-removal numbering the moves are in.
	PreOf []int
}

// MoveFraction returns the fraction of all blocks the plan relocates.
func (p *Plan) MoveFraction() float64 {
	if p.Blocks == 0 {
		return 0
	}
	return float64(len(p.Moves)) / float64(p.Blocks)
}

// OptimalFraction returns z_j, the minimum movement fraction for this
// operation (Definition 3.4 RO1).
func (p *Plan) OptimalFraction() float64 {
	return placement.OptimalMoveFraction(p.NBefore, p.NAfter)
}

// Source enumerates the blocks a plan covers, one call of yield per block, so
// that planning holds no copy of them. Every call must yield the same blocks in
// the same order: the planner pairs a walk before the operation with one after.
type Source func(yield func(placement.BlockRef))

// sliceSource is the Source of a block list already in memory.
func sliceSource(blocks []placement.BlockRef) Source {
	return func(yield func(placement.BlockRef)) {
		for _, b := range blocks {
			yield(b)
		}
	}
}

// runLen is how many blocks the planner resolves at a time: enough for
// SCADDAR's bulk sweep to fan out, little beside an int32 per block.
const runLen = 4096

// planFrom is the one planner. It records every block's disk as an int32,
// lets mutate change the strategy (removing the disks named, if any), then
// walks src again and emits a Move wherever the disk differs. What it holds
// while it runs is 4 bytes a block and 32 a move; only the moves outlive it.
func planFrom(s placement.Strategy, src Source, removed []int, mutate func() error) (*Plan, error) {
	plan := &Plan{NBefore: s.N()}
	src(func(placement.BlockRef) { plan.Blocks++ })
	before := make([]int32, plan.Blocks)
	refs := make([]placement.BlockRef, min(runLen, plan.Blocks))
	disks := make([]int, len(refs))
	sweep := func(fn func(pos int, b placement.BlockRef, d int)) {
		pos, n := 0, 0
		flush := func() {
			placement.SnapshotInto(s, refs[:n], disks)
			for i, b := range refs[:n] {
				fn(pos+i, b, disks[i])
			}
			pos, n = pos+n, 0
		}
		src(func(b placement.BlockRef) {
			if refs[n], n = b, n+1; n == len(refs) {
				flush()
			}
		})
		flush()
	}
	sweep(func(pos int, _ placement.BlockRef, d int) { before[pos] = int32(d) })
	if err := mutate(); err != nil {
		return nil, err
	}
	plan.NAfter = s.N()
	for old := 0; len(removed) > 0 && old < plan.NBefore; old++ {
		if !slices.Contains(removed, old) { // survivors ascending: a survivor's rank is its new index
			plan.PreOf = append(plan.PreOf, old)
		}
	}
	hint := plan.Blocks // a complete redistribution: the count stands still, nearly all move
	if plan.NAfter != plan.NBefore {
		hint = min(hint, int(plan.OptimalFraction()*float64(hint))+hint/64+64) // RO1's z_j, and slack
	}
	plan.Moves = make([]Move, 0, hint)
	sweep(func(pos int, b placement.BlockRef, d int) {
		if plan.PreOf != nil {
			d = plan.PreOf[d]
		}
		if from := int(before[pos]); from != d {
			plan.Moves = append(plan.Moves, Move{Block: b, From: from, To: d})
		}
	})
	return plan, nil
}

// PlanAdd applies an addition of count disks to the strategy and returns the
// resulting plan. The strategy is mutated; the physical array must be grown
// before the plan is executed.
func PlanAdd(s placement.Strategy, blocks []placement.BlockRef, count int) (*Plan, error) {
	return PlanAddFrom(s, sliceSource(blocks), count)
}

// PlanAddFrom is PlanAdd over an enumeration of the blocks.
func PlanAddFrom(s placement.Strategy, src Source, count int) (*Plan, error) {
	return planFrom(s, src, nil, func() error { return s.AddDisks(count) })
}

// PlanRemove applies a removal of the given logical indices to the strategy
// and returns the resulting plan with both endpoints in the PRE-removal
// numbering. The strategy is mutated; the plan must be executed before the
// physical array is shrunk.
func PlanRemove(s placement.Strategy, blocks []placement.BlockRef, indices ...int) (*Plan, error) {
	return PlanRemoveFrom(s, sliceSource(blocks), indices...)
}

// PlanRemoveFrom is PlanRemove over an enumeration of the blocks.
func PlanRemoveFrom(s placement.Strategy, src Source, indices ...int) (*Plan, error) {
	return planFrom(s, src, indices, func() error { return s.RemoveDisks(indices...) })
}

// Rebaseliner is a strategy that supports the paper's complete
// redistribution (placement.Scaddar implements it).
type Rebaseliner interface {
	placement.Strategy
	Rebaseline() error
}

// PlanRebaseline applies a complete redistribution to the strategy and
// returns the resulting plan — the "redistribution of all the blocks" the
// paper recommends once the Section 4.3 budget is exhausted. The disk count
// is unchanged; nearly all blocks move. Both endpoints are current logical
// indices, valid immediately.
func PlanRebaseline(s Rebaseliner, src Source) (*Plan, error) {
	return planFrom(s, src, nil, s.Rebaseline)
}

// BlockIDFunc maps a placement block reference to the disk-layer block ID.
type BlockIDFunc func(placement.BlockRef) disk.BlockID

// DiskFunc resolves a plan-space logical index to the physical disk at
// execution time.
type DiskFunc func(logical int) (*disk.Disk, error)

// PayloadMoveFunc relocates a block's real bytes alongside its metadata
// move. It runs after the metadata has moved (src.Remove + dst.Store), with
// both physical disks resolved; implementations read the source payload,
// write the destination, and drop the source copy.
type PayloadMoveFunc func(b placement.BlockRef, id disk.BlockID, src, dst *disk.Disk) error

// pendingSet is the one record of which of a plan's moves have not executed
// yet. moves and index are built once and never written again; doneAt[i] is
// zero while move i is pending and otherwise the 1-based count of retirements
// at which it retired (executed or extracted), written once by the executor's
// owner. That stamp is what lets any number of point-in-time views share the
// set without copying it.
type pendingSet struct {
	moves  []Move
	index  map[placement.BlockRef]int32 // block -> position in moves
	doneAt []atomic.Uint32
}

// PendingView is a read-only view of a migration's pending set as it stood
// after asOf retirements: a move is pending in the view unless it retired at
// or before asOf. Views are values, never go stale (a view taken at round r
// still reports a block pending after round r+1 moves it), cost nothing to
// take, and are safe for concurrent readers while the owner keeps executing.
// The zero view has no pending moves.
type PendingView struct {
	set  *pendingSet
	asOf uint32
}

func (v PendingView) pending(i int32) bool {
	d := v.set.doneAt[i].Load()
	return d == 0 || d > v.asOf
}

// Source reports the logical disk a block must still be read from because
// its move had not executed as of the view: one map probe and one atomic
// load, no allocation.
func (v PendingView) Source(b placement.BlockRef) (from int, pending bool) {
	if v.set == nil {
		return 0, false
	}
	if i, ok := v.set.index[b]; ok && v.pending(i) {
		return v.set.moves[i].From, true
	}
	return 0, false
}

// Len returns the number of moves pending in the view.
func (v PendingView) Len() int {
	if v.set == nil {
		return 0
	}
	return len(v.set.moves) - int(v.asOf)
}

// Each calls fn for every move pending in the view, in plan order.
func (v PendingView) Each(fn func(Move)) {
	if v.Len() == 0 {
		return
	}
	for i, m := range v.set.moves {
		if v.pending(int32(i)) {
			fn(m)
		}
	}
}

// Executor carries out a plan move by move, optionally throttled by
// per-disk I/O budgets so that migration shares each round's bandwidth with
// stream service. It takes ownership of the plan's move list, which must
// not be modified afterwards.
type Executor struct {
	blockID BlockIDFunc
	diskOf  DiskFunc
	payload PayloadMoveFunc
	set     *pendingSet
	// order lists plan positions still to scan, in plan order, so Step keeps
	// its scan order without touching the shared set. It may hold positions
	// ExecuteBlock already retired; scans drop those.
	order []int32
	// roles has bit 0 set for each disk the plan reads from, bit 1 if it writes.
	roles   []uint8
	retired uint32 // moves executed or extracted so far: the stamp clock
	moved   int
	rounds  int
	// movedLog accumulates the blocks Step executed since the last
	// TakeMoved call, for durable-event emission.
	movedLog []placement.BlockRef
}

// NewExecutor prepares a plan for execution.
func NewExecutor(plan *Plan, blockID BlockIDFunc, diskOf DiskFunc) (*Executor, error) {
	if plan == nil {
		return nil, fmt.Errorf("reorg: nil plan")
	}
	if blockID == nil || diskOf == nil {
		return nil, fmt.Errorf("reorg: executor needs block-ID and disk resolvers")
	}
	set := &pendingSet{
		moves:  plan.Moves,
		index:  make(map[placement.BlockRef]int32, len(plan.Moves)),
		doneAt: make([]atomic.Uint32, len(plan.Moves)),
	}
	order := make([]int32, len(plan.Moves))
	var roles []uint8
	for i, m := range plan.Moves {
		set.index[m.Block] = int32(i)
		order[i] = int32(i)
		if n := max(m.From, m.To) + 1; n > len(roles) {
			roles = append(roles, make([]uint8, n-len(roles))...)
		}
		roles[m.From] |= 1
		roles[m.To] |= 2
	}
	return &Executor{blockID: blockID, diskOf: diskOf, set: set, order: order, roles: roles}, nil
}

// SetPayloadMover installs the optional hook that moves each block's real
// bytes with its metadata. Install it before the first Step/ExecuteAll call;
// a nil mover (the default) keeps the executor a pure metadata simulation.
func (e *Executor) SetPayloadMover(fn PayloadMoveFunc) { e.payload = fn }

// View returns the pending set as of now. Owner goroutine only; the view
// itself may be handed to any goroutine.
func (e *Executor) View() PendingView { return PendingView{set: e.set, asOf: e.retired} }

// PendingSource reports the logical disk a block must still be read from
// because its move has not executed yet. This is what keeps the access
// function correct while a reorganization is in flight: until the block
// physically moves, it is served from its pre-operation home.
func (e *Executor) PendingSource(b placement.BlockRef) (from int, pending bool) {
	return e.View().Source(b)
}

// Done reports whether every move has been executed.
func (e *Executor) Done() bool { return e.Remaining() == 0 }

// Moved returns the number of moves executed so far.
func (e *Executor) Moved() int { return e.moved }

// Rounds returns the number of throttled Step calls made so far.
func (e *Executor) Rounds() int { return e.rounds }

// Remaining returns the number of moves not yet executed.
func (e *Executor) Remaining() int { return e.View().Len() }

// ExecuteAll runs the whole plan without throttling (an offline
// reorganization with the server down) and returns the number of blocks
// moved.
func (e *Executor) ExecuteAll() (int, error) {
	n := 0
	for k, i := range e.order {
		if e.set.doneAt[i].Load() != 0 {
			continue
		}
		if err := e.executeOne(i); err != nil {
			e.order = e.order[k:]
			return n, err
		}
		n++
	}
	e.order = nil
	return n, nil
}

// Step executes moves while per-disk I/O budget remains: each move consumes
// one read on the source and one write on the destination. budget is
// indexed by plan-space logical disk; it is decremented in place. Moves
// whose source or destination budget is exhausted are skipped and stay
// pending for the next round, so one saturated disk does not stall the whole
// migration. A move that fails stays pending too, like everything after it.
// The scan stops once every disk the plan reads from, or every disk it writes
// to, is out of budget: no move further on could run.
func (e *Executor) Step(budget []int) (moved int, err error) {
	e.rounds++
	// src and dst count the plan's disks with budget left to read, to write;
	// a disk past the budget's end fails its moves, so the scan reaches them.
	src, dst := 0, 0
	stops := len(budget) >= len(e.roles)
	for d, r := range e.roles {
		if stops && budget[d] > 0 {
			src, dst = src+int(r&1), dst+int(r>>1)
		}
	}
	spend := func(d int) {
		if budget[d]--; budget[d] == 0 {
			src, dst = src-int(e.roles[d]&1), dst-int(e.roles[d]>>1)
		}
	}
	kept := e.order[:0]
	for k, i := range e.order {
		if stops && (src == 0 || dst == 0) {
			kept = append(kept, e.order[k:]...)
			break
		}
		if e.set.doneAt[i].Load() != 0 {
			continue
		}
		m := e.set.moves[i]
		switch {
		case m.From >= len(budget) || m.To >= len(budget):
			err = fmt.Errorf("reorg: move endpoints %d→%d outside budget of %d disks", m.From, m.To, len(budget))
		case budget[m.From] <= 0 || budget[m.To] <= 0:
			kept = append(kept, i)
			continue
		default:
			err = e.executeOne(i)
		}
		if err != nil {
			e.order = append(kept, e.order[k:]...)
			return moved, err
		}
		e.movedLog = append(e.movedLog, m.Block)
		spend(m.From)
		spend(m.To)
		moved++
	}
	e.order = kept
	return moved, nil
}

// TakeMoved returns the blocks Step has executed since the last call, in a
// slice the next Step reuses. The caller (the CM server) journals them; replay
// uses ExecuteBlock to re-apply exactly those moves, whatever their place in
// the plan: budgets skip moves, ExtractBySource removes them, and a journal
// may predate the planner's fixed order.
func (e *Executor) TakeMoved() []placement.BlockRef {
	out := e.movedLog
	e.movedLog = e.movedLog[:0]
	return out
}

// ExecuteBlock executes the pending move of one specific block, regardless
// of its position in the plan. It exists for journal replay.
func (e *Executor) ExecuteBlock(b placement.BlockRef) error {
	i, ok := e.set.index[b]
	if !ok || e.set.doneAt[i].Load() != 0 {
		return fmt.Errorf("reorg: block %+v has no pending move", b)
	}
	return e.executeOne(i)
}

// ExtractBySource removes and returns every pending move whose source is
// the given logical disk. It exists for fault handling: when a disk fails
// mid-migration its outstanding moves can no longer be executed from the
// (wiped) source, so the recovery layer extracts them and re-materializes
// each block at its destination from redundant copies instead. Extracted
// blocks stop being reported by PendingSource — their authoritative
// location is the move's destination from now on.
func (e *Executor) ExtractBySource(from int) []Move {
	var out []Move
	kept := e.order[:0]
	for _, i := range e.order {
		if e.set.doneAt[i].Load() != 0 {
			continue
		}
		if m := e.set.moves[i]; m.From == from {
			out = append(out, m)
			e.retire(i)
		} else {
			kept = append(kept, i)
		}
	}
	e.order = kept
	return out
}

// retire stamps move i as no longer pending, for every view taken from now
// on.
func (e *Executor) retire(i int32) {
	e.retired++
	e.set.doneAt[i].Store(e.retired)
}

// executeOne performs move i against the physical disks and retires it. A
// move that fails leaves the metadata where it was, so it is still pending
// in fact as well as in every view, and can be retried.
func (e *Executor) executeOne(i int32) error {
	m := e.set.moves[i]
	src, err := e.diskOf(m.From)
	if err != nil {
		return fmt.Errorf("reorg: resolving source of %+v: %w", m, err)
	}
	dst, err := e.diskOf(m.To)
	if err != nil {
		return fmt.Errorf("reorg: resolving destination of %+v: %w", m, err)
	}
	id := e.blockID(m.Block)
	if err := src.Remove(id); err != nil {
		return fmt.Errorf("reorg: %w", err)
	}
	if err := dst.Store(id); err != nil {
		_ = src.Store(id) // undo: it was there a moment ago
		return fmt.Errorf("reorg: %w", err)
	}
	if e.payload != nil {
		if err := e.payload(m.Block, id, src, dst); err != nil {
			_ = dst.Remove(id) // undo both halves: they just succeeded
			_ = src.Store(id)
			return fmt.Errorf("reorg: %w", err)
		}
	}
	src.RecordMigration()
	dst.RecordMigration()
	e.retire(i)
	e.moved++
	return nil
}
