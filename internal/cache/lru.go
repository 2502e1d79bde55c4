// Package cache implements the server-side block buffer of a
// continuous-media server: a fixed-capacity LRU over block identities.
//
// Under sequential playback an LRU buffer behaves like the classic interval
// cache (Dan & Sitaram): when one viewer follows another through the same
// object closely enough, the follower's reads hit the blocks the leader
// just pulled — the popular titles of a Zipf catalog effectively stream
// from RAM, and the disks only serve the leaders. Experiment E13 measures
// that effect; the cm server consults the cache before charging a disk.
package cache

import (
	"container/list"
	"fmt"

	"scaddar/internal/disk"
)

// LRU is a fixed-capacity least-recently-used cache of block identities.
// The zero value is unusable; use New. Not safe for concurrent use (the
// round loop is single-threaded).
type LRU struct {
	capacity int
	order    *list.List // front = most recent; values are disk.BlockID
	index    map[disk.BlockID]*list.Element
}

// New creates an LRU holding up to capacity blocks. Zero capacity is valid
// and caches nothing (every lookup misses).
func New(capacity int) (*LRU, error) {
	if capacity < 0 {
		return nil, fmt.Errorf("cache: negative capacity %d", capacity)
	}
	return &LRU{
		capacity: capacity,
		order:    list.New(),
		index:    make(map[disk.BlockID]*list.Element),
	}, nil
}

// Len returns the number of cached blocks.
func (c *LRU) Len() int { return c.order.Len() }

// Contains reports whether the block is cached without touching recency.
func (c *LRU) Contains(b disk.BlockID) bool {
	_, ok := c.index[b]
	return ok
}

// Get looks the block up, refreshing its recency on a hit.
func (c *LRU) Get(b disk.BlockID) bool {
	el, ok := c.index[b]
	if ok {
		c.order.MoveToFront(el)
	}
	return ok
}

// Put inserts (or refreshes) a block, evicting the least recently used one
// when at capacity.
func (c *LRU) Put(b disk.BlockID) {
	if c.capacity == 0 {
		return
	}
	if el, ok := c.index[b]; ok {
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.index, oldest.Value.(disk.BlockID))
	}
	c.index[b] = c.order.PushFront(b)
}

// Remove drops a block (e.g. when its object is deleted). It is a no-op
// for absent blocks.
func (c *LRU) Remove(b disk.BlockID) {
	if el, ok := c.index[b]; ok {
		c.order.Remove(el)
		delete(c.index, b)
	}
}

// Clear empties the cache.
func (c *LRU) Clear() {
	c.order.Init()
	c.index = make(map[disk.BlockID]*list.Element)
}
