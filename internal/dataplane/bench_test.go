package dataplane

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"

	"scaddar/internal/bufpool"
)

// wireTap is the chunk cycle's socket: it keeps every Write by reference
// and serves the parts back to the decoder. Keeping p breaks io.Writer's
// rule on purpose — it is safe only because the cycle decodes before its
// next pooled Get, the only thing that could reuse a released buffer — so
// that the cycle makes exactly the copies the server makes, none, where a
// bytes.Buffer would put back the one the by-reference emitter removed.
type wireTap struct {
	parts [][]byte
	next  int // part Read serves from
}

func (w *wireTap) Write(p []byte) (int, error) {
	w.parts = append(w.parts, p)
	return len(p), nil
}

func (w *wireTap) Read(p []byte) (int, error) {
	if w.next == len(w.parts) {
		return 0, io.EOF
	}
	n := copy(p, w.parts[w.next])
	if w.parts[w.next] = w.parts[w.next][n:]; len(w.parts[w.next]) == 0 {
		w.next++
	}
	return n, nil
}

// chunkCycle is what one session does once per round, end to end in
// memory, through the same emitter the gateway's handler calls
// (Session.WriteBuffered). BenchmarkStreamChunk times it and
// TestStreamChunkZeroAlloc pins it, so neither models the drain privately.
type chunkCycle struct {
	s       *Session
	wire    wireTap
	br      *bufio.Reader
	scratch []byte
}

func newChunkCycle(blockBytes int) *chunkCycle {
	c := &chunkCycle{
		s:       NewSession(1, 0, int64(blockBytes), SessionBufferConfig{Buffer: 4}),
		scratch: make([]byte, blockBytes+64),
	}
	c.br = bufio.NewReaderSize(&c.wire, blockBytes+64)
	// Warm the size class so the measured runs hit the pool.
	bufpool.Get(blockBytes).Release()
	return c
}

// step runs chunk i through the cycle: acquire a pooled payload buffer (as
// the batched segment reader does), offer it into the session buffer,
// receive it as the handler does, emit it by reference — header, the
// payload itself, release — and decode+verify the frame as a client does.
func (c *chunkCycle) step(i int) error {
	size := int(c.s.BlockBytes())
	buf := bufpool.Get(size)
	p := bufpool.Payload{Data: buf.Data(), Buf: buf}
	if delivered, _ := c.s.Offer(Chunk{Index: i, Payload: p}); !delivered {
		return errors.New("chunk not delivered")
	}
	ch, open := <-c.s.Chunks()
	c.wire.parts, c.wire.next = c.wire.parts[:0], 0
	if _, _, err := c.s.WriteBuffered(&c.wire, ch, open); err != nil {
		return err
	}
	c.br.Reset(&c.wire)
	f, err := ReadFrameInto(c.br, c.scratch)
	if err != nil {
		return err
	}
	if f.Index != i || len(f.Data) != size {
		return fmt.Errorf("decoded as index %d, %d bytes", f.Index, len(f.Data))
	}
	return nil
}

// BenchmarkStreamChunk measures the per-chunk cost of the streaming hot
// path (chunkCycle.step) at 4 KiB and at the 64 KiB blocks stream_scaleup
// plays. This is the work one session does once per round; at 10k sessions
// it runs 10k times per round on the delivery path. Steady state is zero
// allocations per chunk — guarded by TestStreamChunkZeroAlloc.
func BenchmarkStreamChunk(b *testing.B) {
	for _, blockBytes := range []int{4 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("%dKiB", blockBytes>>10), func(b *testing.B) {
			c := newChunkCycle(blockBytes)
			b.SetBytes(int64(blockBytes))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.step(i); err != nil {
					b.Fatalf("chunk %d: %v", i, err)
				}
			}
		})
	}
}

// TestStreamChunkZeroAlloc pins the streaming hot path at zero allocations
// per chunk: pooled buffer acquisition, session offer/drain, by-reference
// emission, release, and scratch-reuse decode must all run without touching
// the heap once the pools are warm.
func TestStreamChunkZeroAlloc(t *testing.T) {
	c := newChunkCycle(4096)
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		if err := c.step(i); err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("stream chunk path allocates %.1f times per chunk, want 0", allocs)
	}
}

// BenchmarkDeltaFeed measures the locator feed's publish-and-catch-up
// cycle: the owner publishes one moves delta and a caught-up follower
// fetches it — the steady-state cost of keeping one long-polling client
// current during a reorganization.
func BenchmarkDeltaFeed(b *testing.B) {
	f := NewFeed(1024)
	moves := []MovedBlock{{Object: 3, Index: 17}, {Object: 5, Index: 9}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		seq := f.Publish(Delta{Kind: DeltaMoves, Moves: moves})
		got, _, err := f.Since(FeedPos{Seq: seq - 1})
		if err != nil {
			b.Fatalf("since %d: %v", seq-1, err)
		}
		if len(got) != 1 {
			b.Fatalf("since %d returned %d deltas", seq-1, len(got))
		}
	}
}

// BenchmarkFeedPublish is the owner goroutine's cost of one delta on a ring
// already at capacity. moves: a long drain's steady state — the oldest delta
// is dropped, and the ring slides once per capacity's worth of drops rather
// than at each. snapshot: an epoch boundary on a full ring — everything before
// the delta is dropped and cleared at once.
func BenchmarkFeedPublish(b *testing.B) {
	moves := make([]MovedBlock, 264) // a round's worth on the benchmark's array
	snap := &Snapshot{Objects: make([]ObjectInfo, 128), Pending: make([]PendingBlock, 25000)}
	fill := func(f *Feed) {
		for i := 0; i < 1024; i++ {
			f.Publish(Delta{Kind: DeltaMoves, Moves: moves})
		}
	}
	b.Run("moves", func(b *testing.B) {
		f := NewFeed(1024)
		fill(f)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.Publish(Delta{Kind: DeltaMoves, Moves: moves})
		}
	})
	b.Run("snapshot", func(b *testing.B) {
		f := NewFeed(1024)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fill(f)
			b.StartTimer()
			f.Publish(Delta{Kind: DeltaSnapshot, Snapshot: snap})
		}
	})
}

// BenchmarkDeltaFeedFanout is BenchmarkDeltaFeed with 64 parked long-poll
// followers: each publish must wake every waiter, which is the fan-out the
// snapshot+delta protocol pays instead of 10k per-block lookups.
func BenchmarkDeltaFeedFanout(b *testing.B) {
	const followers = 64
	f := NewFeed(1024)
	moves := []MovedBlock{{Object: 1, Index: 2}}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for w := 0; w < followers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var after uint64
			for ctx.Err() == nil {
				deltas, seq, err := f.Wait(ctx, FeedPos{Seq: after})
				if err != nil {
					return
				}
				_ = deltas
				after = seq
			}
		}()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Publish(Delta{Kind: DeltaMoves, Moves: moves})
	}
	b.StopTimer()
	cancel()
	wg.Wait()
}
