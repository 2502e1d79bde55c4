// Package bufpool provides size-classed, reference-counted payload buffers
// for the block-delivery hot path.
//
// A continuous-media round at E19 scale moves thousands of blocks per
// second from segment files through the delivery sink into streaming
// responses. Allocating a fresh []byte per block makes the garbage
// collector a round participant; instead every payload read lands in a
// pooled Buf that flows *by reference* through
// cm.DeliverySink → dataplane.Session → the HTTP frame encoder and is
// returned to its sync.Pool when the last holder releases it.
//
// Reference counting is required — not just ergonomic — because a chunk's
// lifetime forks: the round driver may drop it on a deadline miss, the
// session may be evicted with chunks still buffered, or the consumer may
// disconnect mid-stream. Each path must release exactly once; Release
// panics on over-release so lifecycle bugs fail loudly under test instead
// of silently corrupting a recycled buffer.
package bufpool

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// minClassBits is the smallest size class (512 B); payloads below it round
// up. maxClassBits caps pooling at 16 MiB — larger requests are satisfied
// with a one-off allocation that is still refcounted but never pooled.
const (
	minClassBits = 9
	maxClassBits = 24
	numClasses   = maxClassBits - minClassBits + 1
)

// pools holds one sync.Pool per power-of-two size class.
var pools [numClasses]sync.Pool

// inUse holds both leak gauges in one word, so the hot path pays one atomic
// add for the pair: above bit byteBits the number of buffers currently held
// by at least one reference, below it their backing capacity in bytes. A
// release subtracts exactly what its Get added, so the low field never
// borrows from the high one; 4 TiB and two million buffers in flight are
// beyond any host this runs on. The buffer-lifecycle leak tests snapshot
// InUse before a scenario and assert it returns to the snapshot after every
// session path (miss, eviction, paused-open, disconnect) has run.
var inUse atomic.Int64

const byteBits = 42

// Buf is a pooled, reference-counted byte buffer. The backing array's
// capacity is its size class; Data() views the first n bytes requested
// from Get. A Buf starts with one reference and is recycled when the
// count reaches zero.
type Buf struct {
	data  []byte
	n     int
	class int32
	refs  atomic.Int32
}

// classFor returns the pool index for a request of n bytes, or -1 when the
// request exceeds the largest class and must be allocated off-pool.
func classFor(n int) int {
	if n <= 1<<minClassBits {
		return 0
	}
	if n > 1<<maxClassBits {
		return -1
	}
	c := 0
	for sz := 1 << minClassBits; sz < n; sz <<= 1 {
		c++
	}
	return c
}

// Get returns a buffer whose Data() slice is exactly n bytes, drawn from
// the matching size-class pool (or freshly allocated for oversized
// requests). The caller holds the initial reference.
func Get(n int) *Buf {
	if n < 0 {
		panic(fmt.Sprintf("bufpool: negative size %d", n))
	}
	c := classFor(n)
	if c < 0 {
		b := &Buf{data: make([]byte, n), n: n, class: -1}
		return b.acquire()
	}
	b, _ := pools[c].Get().(*Buf)
	if b == nil {
		b = &Buf{data: make([]byte, 1<<(minClassBits+c)), class: int32(c)}
	}
	b.n = n
	return b.acquire()
}

// gauge is b's entry in inUse: one buffer, cap(b.data) bytes.
func (b *Buf) gauge() int64 { return 1<<byteBits + int64(cap(b.data)) }

// acquire hands out b's initial reference and enters it in the gauges.
func (b *Buf) acquire() *Buf {
	b.refs.Store(1)
	inUse.Add(b.gauge())
	return b
}

// Data returns the payload view of the buffer: the first n bytes requested
// from Get. The slice is valid until the last reference is released.
func (b *Buf) Data() []byte { return b.data[:b.n] }

// Retain adds a reference. Each Retain must be paired with exactly one
// Release.
func (b *Buf) Retain() {
	if b.refs.Add(1) <= 1 {
		panic("bufpool: Retain on released buffer")
	}
}

// Release drops one reference; the last release returns the buffer to its
// pool. Releasing more times than retained panics — a loud failure beats a
// recycled buffer being scribbled over while a reader still holds it.
func (b *Buf) Release() {
	switch r := b.refs.Add(-1); {
	case r == 0:
		inUse.Add(-b.gauge())
		if b.class >= 0 {
			pools[b.class].Put(b)
		}
	case r < 0:
		panic("bufpool: buffer over-released")
	}
}

// InUse reports the number of pooled buffers currently referenced. It is a
// global gauge intended for leak tests: quiesce the system, then assert
// InUse returned to its starting value.
func InUse() int64 { return inUse.Load() >> byteBits }

// InUseBytes reports the backing capacity of the buffers InUse counts — the
// memory the pipeline's in-flight payloads pin (a coalesced span counts
// once, at its size class, however many payloads view it).
func InUseBytes() int64 { return inUse.Load() & (1<<byteBits - 1) }

// Payload is the unit that flows through the delivery pipeline: a byte
// view plus the pooled buffer backing it (nil for unpooled bytes such as
// oracle-materialized content, making Release a no-op). Passing a Payload
// transfers ownership of one reference; the receiver must either Release
// it or hand it on.
type Payload struct {
	// Data is the payload bytes. It may alias a shared pooled buffer
	// (coalesced reads hand out sub-slices of one span), so holders must
	// not write into it.
	Data []byte
	// Buf is the pooled backing buffer, nil when Data is unpooled.
	Buf *Buf
}

// Unpooled wraps plain bytes in a Payload whose Release is a no-op. Used
// for oracle-materialized content and other allocations the pool does not
// manage.
func Unpooled(data []byte) Payload { return Payload{Data: data} }

// Retain adds a reference to the backing buffer, if pooled.
func (p Payload) Retain() {
	if p.Buf != nil {
		p.Buf.Retain()
	}
}

// Release drops the caller's reference to the backing buffer, if pooled.
func (p Payload) Release() {
	if p.Buf != nil {
		p.Buf.Release()
	}
}
