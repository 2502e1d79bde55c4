package dataplane

import (
	"context"
	"errors"
	"math/rand/v2"
	"strconv"
	"strings"
	"sync"
)

// This file is the server side of the snapshot+delta locator protocol.
// Clients fetch one full Snapshot (the operation log, object catalog, and
// in-flight pending set), then follow the Feed: per-round "moves" deltas
// while a reorganization drains, and rare "snapshot" deltas at epoch
// boundaries (scale start/finish, object changes) that carry a fresh
// Snapshot. Placement itself is a pure function of the snapshot — the
// jump-consistent-hash lesson — so 10k sessions tracking a reorg cost the
// server one small delta broadcast per round instead of 10k lookups.

// ObjectInfo describes one object in a locator snapshot, seed included —
// the seed is what lets a client compute placement (and the content
// oracle) locally.
type ObjectInfo struct {
	// ID is the object's identity.
	ID int `json:"id"`
	// Seed drives the object's block randomness and content oracle.
	Seed uint64 `json:"seed"`
	// Blocks is the object's extent.
	Blocks int `json:"blocks"`
	// BlockBytes is the block size.
	BlockBytes int64 `json:"blockBytes"`
}

// PendingBlock is one block whose migration move has not executed yet: it
// is still served from its pre-operation disk From.
type PendingBlock struct {
	// Object is the owning object's ID.
	Object int `json:"object"`
	// Index is the block index within the object.
	Index int `json:"index"`
	// From is the pre-operation logical disk still holding the block.
	From int `json:"from"`
}

// MovedBlock is one block whose migration move executed this round — it
// now lives at its post-operation home.
type MovedBlock struct {
	// Object is the owning object's ID.
	Object int `json:"object"`
	// Index is the block index within the object.
	Index int `json:"index"`
}

// FeedPos is a position in one gateway process's feed. A restarted gateway's
// feed starts again at sequence 0 under a new incarnation, so sequences of
// different incarnations do not compare: a cursor from another is a resync.
type FeedPos struct {
	// ID is the feed's incarnation; zero means "whichever is serving".
	ID uint64
	// Seq is the sequence number within that incarnation.
	Seq uint64
}

// FeedHeader is the response header a gateway stamps on the reply to every
// mutating request with a feed position that includes the mutation: a server
// that forwarded the request (the cluster router) need never answer from a
// view older than it, and needs no extra exchange to know.
const FeedHeader = "X-Scaddar-Feed"

// String renders the position as FeedHeader carries it: "<incarnation>-<seq>".
func (p FeedPos) String() string {
	return strconv.FormatUint(p.ID, 10) + "-" + strconv.FormatUint(p.Seq, 10)
}

// ParseFeedPos inverts String; ok is false for anything else, the empty
// header of a reply that was not stamped included.
func ParseFeedPos(s string) (FeedPos, bool) {
	id, seq, _ := strings.Cut(s, "-")
	a, err1 := strconv.ParseUint(id, 10, 64)
	b, err2 := strconv.ParseUint(seq, 10, 64)
	if err1 != nil || err2 != nil {
		return FeedPos{}, false
	}
	return FeedPos{ID: a, Seq: b}, true
}

// Snapshot is the full client-side locator state at one feed sequence
// number. History is the scaddar operation-log binary codec; together with
// Epoch and Bits it reconstructs the placement function exactly as
// cm.RestoreServer does.
type Snapshot struct {
	// Seq is the feed sequence this snapshot reflects.
	Seq uint64 `json:"seq"`
	// Incarnation identifies the feed Seq counts in (FeedPos.ID).
	Incarnation uint64 `json:"incarnation,omitempty"`
	// N is the logical disk count.
	N int `json:"n"`
	// Epoch counts complete redistributions.
	Epoch uint64 `json:"epoch,omitempty"`
	// Bits is the generator width.
	Bits uint `json:"bits"`
	// Reorganizing reports an in-flight migration.
	Reorganizing bool `json:"reorganizing,omitempty"`
	// History is the scaling-operation log (scaddar binary codec).
	History []byte `json:"history"`
	// Objects is the catalog with seeds.
	Objects []ObjectInfo `json:"objects"`
	// Pending lists blocks still at their pre-operation homes.
	Pending []PendingBlock `json:"pending,omitempty"`
	// PreOf translates post-removal logical indices to the pre-removal
	// numbering while a scale-down drain is in flight.
	PreOf []int `json:"preOf,omitempty"`
	// Unhealthy lists the logical disks that are failed or rebuilding — the
	// "healthy" field of a block-read reply, for a server answering from the
	// snapshot.
	Unhealthy []int `json:"unhealthy,omitempty"`
}

// Delta kinds.
const (
	// DeltaMoves carries the blocks whose moves executed this round.
	DeltaMoves = "moves"
	// DeltaSnapshot carries a fresh full snapshot at an epoch boundary
	// (scale op start/finish, rebaseline, object add/remove).
	DeltaSnapshot = "snapshot"
)

// Delta is one feed entry.
type Delta struct {
	// Seq is the entry's position in the feed, starting at 1.
	Seq uint64 `json:"seq"`
	// Kind is DeltaMoves or DeltaSnapshot.
	Kind string `json:"kind"`
	// Moves is set for DeltaMoves.
	Moves []MovedBlock `json:"moves,omitempty"`
	// Snapshot is set for DeltaSnapshot.
	Snapshot *Snapshot `json:"snapshot,omitempty"`
}

// DeltaPage is the payload of the delta long-poll (GET /v1/locator/deltas).
type DeltaPage struct {
	// Deltas are the feed entries after the requested sequence, in order.
	Deltas []Delta `json:"deltas"`
	// Seq is the newest published sequence; poll again with after=Seq.
	Seq uint64 `json:"seq"`
	// Incarnation identifies the feed the sequences count in.
	Incarnation uint64 `json:"incarnation,omitempty"`
}

// ErrDeltaGone is returned by Since when the feed cannot be continued from
// the requested position — it has been evicted from the bounded ring, lies
// beyond what this feed has published, or belongs to another incarnation —
// and the client must refetch the full snapshot.
var ErrDeltaGone = errors.New("dataplane: delta sequence no longer retained")

// Feed is a bounded, sequence-numbered delta log with long-poll support.
// Publish is called by the owner goroutine; Since and Wait are safe for any
// number of concurrent readers. A snapshot delta supersedes everything before
// it (a follower installs one at whatever sequence it arrives), so the ring
// begins at the newest; after it, capacity bounds the ring, oldest first out.
type Feed struct {
	id    uint64 // incarnation: fixed at NewFeed
	mu    sync.Mutex
	ring  []Delta // retained: ring[head:], the slots before head cleared
	head  int
	cap   int
	start uint64 // seq of ring[head]; 1-based
	seq   uint64 // last published seq
	bytes int    // deltaBytes over ring[head:]
	// wake is closed and replaced on every publish (broadcast idiom).
	wake chan struct{}
}

// NewFeed creates a feed retaining up to capacity deltas (minimum 16), under
// a fresh random incarnation: non-zero, and 53 bits so that it survives a JSON
// reader that holds numbers as float64.
func NewFeed(capacity int) *Feed {
	if capacity < 16 {
		capacity = 16
	}
	return &Feed{id: rand.Uint64()>>11 | 1, cap: capacity, start: 1, wake: make(chan struct{})}
}

// deltaBytes estimates what a retained delta references: 16 bytes a move, 24
// a pending block, 32 a catalogue row.
func deltaBytes(d Delta) int {
	if d.Snapshot != nil {
		return len(d.Snapshot.Pending)*24 + len(d.Snapshot.Objects)*32
	}
	return len(d.Moves) * 16
}

// Publish appends a delta, stamping and returning its sequence number.
func (f *Feed) Publish(d Delta) uint64 {
	f.mu.Lock()
	f.seq++
	d.Seq = f.seq
	switch {
	case d.Kind == DeltaSnapshot:
		clear(f.ring) // unreferenced at once, not when the slot is overwritten
		f.ring, f.head, f.start, f.bytes = f.ring[:0], 0, d.Seq, 0
	case len(f.ring)-f.head == f.cap:
		f.bytes -= deltaBytes(f.ring[f.head])
		f.ring[f.head] = Delta{}
		f.head, f.start = f.head+1, f.start+1
		if f.head == f.cap { // slide once per capacity's worth of drops, not at each
			n := copy(f.ring, f.ring[f.head:])
			clear(f.ring[n:])
			f.ring, f.head = f.ring[:n], 0
		}
	}
	f.ring = append(f.ring, d)
	f.bytes += deltaBytes(d)
	wake := f.wake
	f.wake = make(chan struct{})
	f.mu.Unlock()
	close(wake)
	return d.Seq
}

// Seq returns the last published sequence number.
func (f *Feed) Seq() uint64 { return f.Pos().Seq }

// Pos returns the feed's incarnation and last published sequence number.
func (f *Feed) Pos() FeedPos {
	f.mu.Lock()
	defer f.mu.Unlock()
	return FeedPos{ID: f.id, Seq: f.seq}
}

// Retained returns how many deltas the ring holds and their deltaBytes.
func (f *Feed) Retained() (deltas, bytes int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.ring) - f.head, f.bytes
}

// Since returns every retained delta with sequence greater than after.Seq,
// plus the latest sequence; a cursor older than a ring that begins with a
// snapshot delta gets the whole ring, a page that starts above after.Seq+1.
// ErrDeltaGone tells the client to refetch the snapshot: after fell out of a
// ring that begins with a moves delta, names another incarnation (a zero ID
// names none), or lies beyond the newest sequence — a cursor this feed never
// issued, which it would otherwise serve its own deltas once it passed it.
func (f *Feed) Since(after FeedPos) ([]Delta, uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.gone(after) {
		return nil, f.seq, ErrDeltaGone
	}
	live := f.ring[f.head+int(max(after.Seq+1, f.start)-f.start):]
	out := make([]Delta, len(live))
	copy(out, live)
	return out, f.seq, nil
}

// gone reports whether the feed cannot be continued from after. mu held.
func (f *Feed) gone(after FeedPos) bool {
	return after.ID != 0 && after.ID != f.id || after.Seq > f.seq ||
		after.Seq+1 < f.start && f.ring[f.head].Kind != DeltaSnapshot
}

// Wait blocks until a delta newer than after is available or the context
// ends, then behaves like Since; a position Since refuses is refused at once.
// A long-poll handler calls it with the request context.
func (f *Feed) Wait(ctx context.Context, after FeedPos) ([]Delta, uint64, error) {
	for {
		f.mu.Lock()
		wake := f.wake
		parked := !f.gone(after) && after.Seq == f.seq
		f.mu.Unlock()
		if !parked {
			return f.Since(after)
		}
		select {
		case <-ctx.Done():
			return f.Since(after)
		case <-wake:
		}
	}
}
