package cm

import (
	"testing"
	"time"

	"scaddar/internal/bufpool"
	"scaddar/internal/dataplane"
	"scaddar/internal/disk"
	"scaddar/internal/placement"
	"scaddar/internal/prng"
	"scaddar/internal/workload"
)

// benchSink is a minimal delivery sink for round benchmarks: it wants every
// payload, counts the bytes, and releases each buffer immediately — the
// cheapest well-behaved consumer, so the measured cost is the server's.
type benchSink struct {
	bytes int64
}

func (s *benchSink) WantsPayload(int) bool { return true }

func (s *benchSink) Deliver(stream, object, index int, p bufpool.Payload) bool {
	s.bytes += int64(len(p.Data))
	p.Release()
	return false
}

func (s *benchSink) StreamClosed(int, StreamState) {}

// unbatchedStore answers ReadBlocks the way stores did before batching —
// one locked, unpooled Get per block — kept as the benchmark baseline.
type unbatchedStore struct{ *dataplane.Store }

func (u unbatchedStore) ReadBlocks(reqs []disk.BlockRead) {
	for i := range reqs {
		data, err := u.Get(reqs[i].Block)
		reqs[i].Payload, reqs[i].Err = bufpool.Unpooled(data), err
	}
}

// benchPayloadServer builds a server over a SCADDAR array of the given size
// with a segment store under every disk — wrapped in unbatchedStore when
// unbatched — closed when the benchmark ends.
func benchPayloadServer(b *testing.B, disks int, cfg Config, unbatched bool) *Server {
	b.Helper()
	x0 := placement.NewX0Func(func(seed uint64) prng.Source { return prng.NewSplitMix64(seed) })
	strat, err := placement.NewScaddar(disks, x0)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewServer(cfg, strat)
	if err != nil {
		b.Fatal(err)
	}
	mgr, err := dataplane.NewManager(b.TempDir(), dataplane.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { mgr.Close() })
	factory := mgr.Factory()
	if unbatched {
		factory = func(id int) (disk.PayloadStore, error) {
			ps, err := mgr.Open(id)
			if err != nil {
				return nil, err
			}
			return unbatchedStore{ps}, nil
		}
	}
	if err := srv.AttachPayloads(factory, dataplane.SeededContent); err != nil {
		b.Fatal(err)
	}
	return srv
}

// BenchmarkRoundDelivery measures one full scheduling round of the payload
// path: every playing stream plans its block read, the reads are grouped by
// disk, coalesced, and executed as per-disk batches running in parallel
// (one worker per batch, bounded by GOMAXPROCS), and the delivered chunks
// flow through the sink. The disks subdimension varies how many stores the
// same stream population is spread over; the seq variant disables batching
// (per-block Get, one syscall and one allocation per block) to show what
// coalescing and pooling buy.
func BenchmarkRoundDelivery(b *testing.B) {
	type variant struct {
		name    string
		disks   int
		batched bool
	}
	variants := []variant{
		{"disks=1", 1, true},
		{"disks=2", 2, true},
		{"disks=4", 4, true},
		{"disks=8", 8, true},
		{"disks=4/seq", 4, false},
	}
	for _, v := range variants {
		disks := v.disks
		b.Run(v.name, func(b *testing.B) {
			// 128 streams of 128 KiB blocks move 16 MiB per round — enough
			// CRC-verify work per batch that the per-disk parallelism is
			// visible over the goroutine fan-out cost. The 2 s round keeps a
			// single simulated disk's block budget above the stream count so
			// every sub-benchmark serves the same population.
			const (
				blockBytes = 128 << 10
				objects    = 8
				blocks     = 64
				streams    = 128
			)
			cfg := DefaultConfig()
			cfg.BlockBytes = blockBytes
			cfg.Round = 2 * time.Second
			cfg.Utilization = 1
			srv := benchPayloadServer(b, disks, cfg, !v.batched)
			for o := 0; o < objects; o++ {
				obj := workload.Object{ID: o + 1, Seed: uint64(o)*77 + 5, Blocks: blocks, BlockBytes: blockBytes}
				if err := srv.AddObject(obj); err != nil {
					b.Fatal(err)
				}
			}
			sink := &benchSink{}
			srv.SetDeliverySink(sink)
			sts := make([]*Stream, streams)
			for i := range sts {
				st, err := srv.StartStream(i%objects + 1)
				if err != nil {
					b.Fatal(err)
				}
				// Stagger start positions so a round's reads span each
				// store instead of clustering on one ingest-order run.
				if err := srv.SeekStream(st.ID, (i*blocks/streams)%blocks); err != nil {
					b.Fatal(err)
				}
				sts[i] = st
			}
			round := func() {
				for _, st := range sts {
					if st.Position >= blocks-1 {
						b.StopTimer()
						if err := srv.SeekStream(st.ID, 0); err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
					}
				}
				if err := srv.Tick(); err != nil {
					b.Fatal(err)
				}
			}
			// One pass over every stream position before the clock starts:
			// each round coalesces differently, and the buffer classes and
			// scratch the largest run needs are set-up — counted inside the
			// loop they made allocs/op depend on b.N.
			const warm = blocks
			for i := 0; i < warm; i++ {
				round()
			}
			b.SetBytes(int64(streams) * blockBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
			b.StopTimer()
			if want := int64(warm+b.N) * int64(streams) * blockBytes; sink.bytes != want {
				b.Fatalf("sink received %d bytes, want %d", sink.bytes, want)
			}
		})
	}
}

// BenchmarkMovePayload measures what a reorganization pays per migrated
// block on the byte side: one 64 KiB block read from its source segment
// store, written to the destination, deleted at the source — the executor's
// payload mover, back and forth between two disks. The read is the pooled
// one playback uses, so a move allocates nothing the size of a block.
func BenchmarkMovePayload(b *testing.B) {
	const blockBytes = 64 << 10
	cfg := DefaultConfig()
	cfg.BlockBytes = blockBytes
	srv := benchPayloadServer(b, 2, cfg, false)
	if err := srv.AddObject(workload.Object{ID: 1, Seed: 5, Blocks: 1, BlockBytes: blockBytes}); err != nil {
		b.Fatal(err)
	}
	bid := blockID(1, 0)
	var ends [2]*disk.Disk
	for i := range ends {
		var err error
		if ends[i], err = srv.array.Disk(i); err != nil {
			b.Fatal(err)
		}
	}
	if !ends[0].Has(bid) {
		ends[0], ends[1] = ends[1], ends[0]
	}
	move := func(i int) {
		if err := srv.movePayload(placement.BlockRef{Seed: 5}, bid, ends[i%2], ends[(i+1)%2]); err != nil {
			b.Fatal(err)
		}
	}
	// There and back once untimed: both stores grow their append scratch.
	move(0)
	move(1)
	b.SetBytes(blockBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		move(i)
	}
}
