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

// newPayloadServer builds a server over n0 disks with a real data plane
// rooted in a temp dir, returning the server and its store manager.
func newPayloadServer(t *testing.T, n0 int, cfg Config) (*Server, *dataplane.Manager) {
	t.Helper()
	x0 := placement.NewX0Func(func(seed uint64) prng.Source { return prng.NewSplitMix64(seed) })
	strat, err := placement.NewScaddar(n0, x0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(cfg, strat)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := dataplane.NewManager(t.TempDir(), dataplane.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	if err := srv.AttachPayloads(mgr.Factory(), dataplane.SeededContent); err != nil {
		t.Fatal(err)
	}
	return srv, mgr
}

// payloadConfig is a small-block config so payload tests stay fast.
func payloadConfig() Config {
	cfg := DefaultConfig()
	cfg.BlockBytes = 1 << 10
	cfg.Round = time.Second
	return cfg
}

// verifyPayloadInventory checks that every disk's payload store holds
// exactly the blocks its metadata inventory names, with oracle-exact bytes.
func verifyPayloadInventory(t *testing.T, srv *Server) {
	t.Helper()
	for i := 0; i < srv.N(); i++ {
		d, err := srv.Array().Disk(i)
		if err != nil {
			t.Fatal(err)
		}
		ps := d.Payload()
		if ps == nil {
			t.Fatalf("disk %d has no payload store", d.ID())
		}
		stored := make(map[disk.BlockID]bool)
		for _, bid := range ps.Blocks() {
			stored[bid] = true
			if !d.Has(bid) {
				t.Fatalf("disk %d: payload %d has no metadata entry", d.ID(), bid)
			}
		}
		for _, bid := range d.Blocks() {
			if !stored[bid] {
				t.Fatalf("disk %d: block %d has metadata but no payload", d.ID(), bid)
			}
			data, err := ps.(*dataplane.Store).Get(bid)
			if err != nil {
				t.Fatalf("disk %d: read payload %d: %v", d.ID(), bid, err)
			}
			object := int(uint64(bid) >> 40)
			index := uint64(bid) & (1<<40 - 1)
			obj, err := srv.Object(object)
			if err != nil {
				t.Fatalf("disk %d: payload %d names unknown object: %v", d.ID(), bid, err)
			}
			if !dataplane.VerifySeededContent(data, obj.Seed, index) {
				t.Fatalf("disk %d: payload %d bytes diverge from the oracle", d.ID(), bid)
			}
		}
	}
}

// captureSink collects delivered bytes per stream for verification.
type captureSink struct {
	chunks map[int][][]byte
	closed map[int]StreamState
}

func newCaptureSink() *captureSink {
	return &captureSink{chunks: make(map[int][][]byte), closed: make(map[int]StreamState)}
}

func (c *captureSink) WantsPayload(int) bool { return true }

func (c *captureSink) Deliver(stream, object, index int, p bufpool.Payload) bool {
	buf := append([]byte(nil), p.Data...)
	p.Release()
	c.chunks[stream] = append(c.chunks[stream], buf)
	return false
}

func (c *captureSink) StreamClosed(stream int, state StreamState) { c.closed[stream] = state }

func TestPayloadServeDeliversIngestBytes(t *testing.T) {
	srv, mgr := newPayloadServer(t, 4, payloadConfig())
	obj := workload.Object{ID: 1, Seed: 77, Blocks: 24, BlockBytes: 1 << 10}
	if err := srv.AddObject(obj); err != nil {
		t.Fatal(err)
	}
	if mgr.LiveBytes() != int64(obj.Blocks)*obj.BlockBytes {
		t.Fatalf("stores hold %d live bytes, want %d", mgr.LiveBytes(), int64(obj.Blocks)*obj.BlockBytes)
	}
	sink := newCaptureSink()
	srv.SetDeliverySink(sink)
	st, err := srv.StartStream(obj.ID)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < obj.Blocks+4 && st.State == StreamPlaying; r++ {
		if err := srv.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if st.State != StreamDone {
		t.Fatalf("stream state = %v after %d blocks", st.State, st.Served)
	}
	got := sink.chunks[st.ID]
	if len(got) != obj.Blocks {
		t.Fatalf("delivered %d chunks, want %d", len(got), obj.Blocks)
	}
	for i, data := range got {
		if !dataplane.VerifySeededContent(data, obj.Seed, uint64(i)) {
			t.Fatalf("chunk %d bytes diverge from ingest", i)
		}
	}
	if sink.closed[st.ID] != StreamDone {
		t.Fatalf("close notification = %v, want done", sink.closed[st.ID])
	}
	if m := srv.Metrics(); m.PayloadBytesServed != int64(obj.Blocks)*obj.BlockBytes {
		t.Fatalf("PayloadBytesServed = %d, want %d", m.PayloadBytesServed, int64(obj.Blocks)*obj.BlockBytes)
	}
	verifyPayloadInventory(t, srv)
}

func TestPayloadMovesWithScaleUpAndDown(t *testing.T) {
	srv, _ := newPayloadServer(t, 4, payloadConfig())
	obj := workload.Object{ID: 2, Seed: 99, Blocks: 200, BlockBytes: 1 << 10}
	if err := srv.AddObject(obj); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.ScaleUp(2); err != nil {
		t.Fatal(err)
	}
	for srv.Reorganizing() {
		if err := srv.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.FinishReorganization(); err != nil {
		t.Fatal(err)
	}
	verifyPayloadInventory(t, srv)

	// Drain two disks back out; their stores must be destroyed on detach.
	if _, err := srv.ScaleDown(1, 4); err != nil {
		t.Fatal(err)
	}
	for srv.Reorganizing() {
		if err := srv.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.CompleteScaleDown(); err != nil {
		t.Fatal(err)
	}
	if err := srv.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	verifyPayloadInventory(t, srv)
}

func TestTransientFaultsFireOnRealReads(t *testing.T) {
	cfg := payloadConfig()
	cfg.Redundancy = RedundancyMirror
	srv, _ := newPayloadServer(t, 6, cfg)
	obj := workload.Object{ID: 3, Seed: 55, Blocks: 64, BlockBytes: 1 << 10}
	if err := srv.AddObject(obj); err != nil {
		t.Fatal(err)
	}
	inj, err := NewInjector(42).WithTransientErrorRate(0.3)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.InstallFaults(inj); err != nil {
		t.Fatal(err)
	}
	sink := newCaptureSink()
	srv.SetDeliverySink(sink)
	st, err := srv.StartStream(obj.ID)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < obj.Blocks*3 && st.State == StreamPlaying; r++ {
		if err := srv.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if st.State != StreamDone {
		t.Fatalf("stream did not finish under transient faults: %v", st.State)
	}
	m := srv.Metrics()
	if m.TransientReadErrors == 0 {
		t.Fatal("no transient errors fired on the real read path")
	}
	if m.DegradedReads == 0 {
		t.Fatal("no degraded reads: failover never reconstructed")
	}
	// Every delivered chunk is byte-identical to ingest regardless of which
	// path (direct read or mirror reconstruction) served it.
	for i, data := range sink.chunks[st.ID] {
		if !dataplane.VerifySeededContent(data, obj.Seed, uint64(i)) {
			t.Fatalf("chunk %d corrupted by failover path", i)
		}
	}
}

func TestPayloadFailoverAndRebuildRealBytes(t *testing.T) {
	cfg := payloadConfig()
	cfg.Redundancy = RedundancyMirror
	srv, _ := newPayloadServer(t, 6, cfg)
	obj := workload.Object{ID: 4, Seed: 11, Blocks: 120, BlockBytes: 1 << 10}
	if err := srv.AddObject(obj); err != nil {
		t.Fatal(err)
	}
	sink := newCaptureSink()
	srv.SetDeliverySink(sink)
	st, err := srv.StartStream(obj.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.FailDisk(2); err != nil {
		t.Fatal(err)
	}
	// The failed disk's store was wiped with it.
	d2, _ := srv.Array().Disk(2)
	if got := len(d2.Payload().Blocks()); got != 0 {
		t.Fatalf("failed disk still holds %d payloads", got)
	}
	for r := 0; r < 20; r++ {
		if err := srv.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.RepairDisk(2); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 600 && (srv.RebuildRemaining() > 0 || st.State == StreamPlaying); r++ {
		if err := srv.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if srv.RebuildRemaining() != 0 {
		t.Fatalf("rebuild stuck with %d items", srv.RebuildRemaining())
	}
	if st.State != StreamDone {
		t.Fatalf("stream state = %v", st.State)
	}
	for i, data := range sink.chunks[st.ID] {
		if !dataplane.VerifySeededContent(data, obj.Seed, uint64(i)) {
			t.Fatalf("chunk %d corrupted across fail/rebuild", i)
		}
	}
	// The rebuilt disk's store holds real, oracle-exact bytes again.
	verifyPayloadInventory(t, srv)
	if m := srv.Metrics(); m.BlocksRebuilt == 0 {
		t.Fatal("no blocks rebuilt")
	}
}

// TestIngestCrashOrphanPayloadGC covers the torn write-path crash: an ingest
// killed after appending a block's bytes but before journaling its metadata
// leaves an orphan payload; recovery's reconcile garbage-collects it, and a
// metadata block whose payload vanished is re-materialized from the oracle.
func TestIngestCrashOrphanPayloadGC(t *testing.T) {
	x0 := placement.NewX0Func(func(seed uint64) prng.Source { return prng.NewSplitMix64(seed) })
	strat, err := placement.NewScaddar(4, x0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := payloadConfig()
	srv, err := NewServer(cfg, strat)
	if err != nil {
		t.Fatal(err)
	}
	obj := workload.Object{ID: 5, Seed: 123, Blocks: 32, BlockBytes: 1 << 10}
	if err := srv.AddObject(obj); err != nil { // metadata only: no payloads yet
		t.Fatal(err)
	}
	root := t.TempDir()
	mgr, err := dataplane.NewManager(root, dataplane.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	// Simulate the crash remnant: disk 0's store holds bytes for a block the
	// metadata journal never committed (object 9 block 0), and none of the
	// catalog's payloads exist yet (the "store lost behind the journal" case).
	st0, err := mgr.Open(0)
	if err != nil {
		t.Fatal(err)
	}
	orphan := disk.BlockID(uint64(9)<<40 | 0)
	if err := st0.Put(orphan, dataplane.SeededContent(999, 0, 1<<10)); err != nil {
		t.Fatal(err)
	}
	if err := srv.AttachPayloads(mgr.Factory(), dataplane.SeededContent); err != nil {
		t.Fatal(err)
	}
	if st0.Has(orphan) {
		t.Fatal("orphan payload survived recovery reconcile")
	}
	// Every catalogued block was re-materialized with oracle-exact bytes.
	verifyPayloadInventory(t, srv)
	if mgr.LiveBytes() != int64(obj.Blocks)*obj.BlockBytes {
		t.Fatalf("reconciled stores hold %d bytes, want %d", mgr.LiveBytes(), int64(obj.Blocks)*obj.BlockBytes)
	}
}

func TestLocatorStateExportMidReorg(t *testing.T) {
	srv, _ := newPayloadServer(t, 4, payloadConfig())
	obj := workload.Object{ID: 6, Seed: 200, Blocks: 300, BlockBytes: 1 << 10}
	if err := srv.AddObject(obj); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.ScaleUp(2); err != nil {
		t.Fatal(err)
	}
	ls, err := srv.LocatorStateExport()
	if err != nil {
		t.Fatal(err)
	}
	if !ls.Reorganizing || ls.N != 6 || len(ls.Pending) == 0 {
		t.Fatalf("state = reorg:%v n:%d pending:%d", ls.Reorganizing, ls.N, len(ls.Pending))
	}
	if len(ls.Objects) != 1 || ls.Objects[0].Seed != obj.Seed {
		t.Fatalf("catalog = %+v", ls.Objects)
	}
	// The pending set names exactly the blocks still served from their
	// pre-operation homes; each must agree with the live server's locate.
	for _, p := range ls.Pending {
		d, err := srv.Lookup(p.Object, int(p.Index))
		if err != nil {
			t.Fatal(err)
		}
		home, err := srv.Array().Disk(p.From)
		if err != nil {
			t.Fatal(err)
		}
		if d.ID() != home.ID() {
			t.Fatalf("pending block %d/%d served from disk %d, state says %d",
				p.Object, p.Index, d.ID(), home.ID())
		}
	}
}

// TestIngestWritesPayloadsLive drives a recording session and checks its
// payloads land with the metadata, round by round.
func TestIngestWritesPayloadsLive(t *testing.T) {
	srv, mgr := newPayloadServer(t, 4, payloadConfig())
	base := workload.Object{ID: 7, Seed: 31, Blocks: 16, BlockBytes: 1 << 10}
	if err := srv.AddObject(base); err != nil {
		t.Fatal(err)
	}
	rec := workload.Object{ID: 8, Seed: 32, Blocks: 40, BlockBytes: 1 << 10}
	in, err := srv.StartIngest(rec, 4)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 40 && !in.Done; r++ {
		if err := srv.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if !in.Done {
		t.Fatalf("ingest wrote %d/%d blocks", in.Written, rec.Blocks)
	}
	verifyPayloadInventory(t, srv)
	want := int64(base.Blocks+rec.Blocks) * (1 << 10)
	if mgr.LiveBytes() != want {
		t.Fatalf("stores hold %d live bytes, want %d", mgr.LiveBytes(), want)
	}
}
