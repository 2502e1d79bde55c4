package repl

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"scaddar/internal/cm"
	"scaddar/internal/frame"
	"scaddar/internal/placement"
	"scaddar/internal/prng"
	"scaddar/internal/store"
	"scaddar/internal/workload"
)

// Shared helpers: a deterministic generator family (the store tests' one),
// a bootstrapped leader store, and wait/compare utilities.

func testFactory(seed uint64) prng.Source { return prng.NewSplitMix64(seed) }

func testX0() placement.X0Func { return placement.NewX0Func(testFactory) }

func testConfig() cm.Config {
	cfg := cm.DefaultConfig()
	cfg.Round = 100 * time.Millisecond
	return cfg
}

func newTestServer(t testing.TB, cfg cm.Config, n0 int) *cm.Server {
	t.Helper()
	strat, err := placement.NewScaddar(n0, testX0())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := cm.NewServer(cfg, strat)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func testObject(id, blocks int) workload.Object {
	return workload.Object{
		ID:                id,
		Seed:              uint64(id)*1000 + 7,
		Blocks:            blocks,
		BlockBytes:        256 << 10,
		BitrateBitsPerSec: 4 << 20,
	}
}

// newLeader bootstraps a server+store in dir (wiring the journal sink) and
// starts a leader on a fresh loopback port. Cleanup closes both.
func newLeader(t *testing.T, dir string, storeCfg store.Config, objects int) (*cm.Server, *store.Store, *Leader) {
	t.Helper()
	storeCfg.Dir = dir
	srv := newTestServer(t, testConfig(), 4)
	st, err := store.Open(storeCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Bootstrap(srv); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < objects; i++ {
		if err := srv.AddObject(testObject(i, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	ldr, err := NewLeader(LeaderConfig{Store: st, Heartbeat: 50 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ldr.Serve(ln)
	t.Cleanup(func() {
		ldr.Close()
		st.Close()
	})
	return srv, st, ldr
}

func startTestFollower(t *testing.T, addr string, tweak func(*FollowerConfig)) *Follower {
	t.Helper()
	cfg := FollowerConfig{
		Addr:        addr,
		X0:          testX0(),
		Factory:     testFactory,
		ReadTimeout: time.Second,
		BackoffBase: 10 * time.Millisecond,
		BackoffCap:  200 * time.Millisecond,
		Seed:        1,
		Logf:        t.Logf,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	f, err := StartFollower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// waitApplied blocks until the follower's applied LSN reaches lsn.
func waitApplied(t *testing.T, f *Follower, lsn uint64, within time.Duration) *View {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if v := f.View(); v != nil && v.AppliedLSN >= lsn {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	v := f.View()
	if v == nil {
		t.Fatalf("follower never bootstrapped (want LSN %d)", lsn)
	}
	t.Fatalf("follower stuck at LSN %d (epoch %d), want %d", v.AppliedLSN, v.Epoch, lsn)
	return nil
}

// assertConverged checks the follower's server is byte-identical to the
// leader's and agrees on every block location.
func assertConverged(t *testing.T, leader, follower *cm.Server) {
	t.Helper()
	if err := follower.VerifyIntegrity(); err != nil {
		t.Fatalf("replica failed integrity: %v", err)
	}
	wantMD, err := leader.ExportMetadata()
	if err != nil {
		t.Fatal(err)
	}
	gotMD, err := follower.ExportMetadata()
	if err != nil {
		t.Fatal(err)
	}
	want, err := cm.EncodeMetadataBinary(wantMD)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cm.EncodeMetadataBinary(gotMD)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != string(got) {
		t.Fatalf("replica metadata diverged: %d vs %d bytes (or content)", len(got), len(want))
	}
	wantSnap, err := leader.BuildSnapshot(testFactory)
	if err != nil {
		t.Fatal(err)
	}
	gotSnap, err := follower.BuildSnapshot(testFactory)
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range wantSnap.Objects() {
		for idx := 0; idx < obj.Blocks; idx++ {
			wd, werr := wantSnap.Locate(obj.ID, idx)
			gd, gerr := gotSnap.Locate(obj.ID, idx)
			if (werr == nil) != (gerr == nil) || wd != gd {
				t.Fatalf("block %d/%d: leader (%d,%v) vs replica (%d,%v)",
					obj.ID, idx, wd, werr, gd, gerr)
			}
		}
	}
}

// TestReplicationBasic: bootstrap from checkpoint, stream live appends,
// converge byte-identical.
func TestReplicationBasic(t *testing.T) {
	srv, st, ldr := newLeader(t, t.TempDir(), store.Config{}, 5)
	f := startTestFollower(t, ldr.Addr().String(), nil)

	durable, _ := st.Durable()
	waitApplied(t, f, durable, 5*time.Second)

	// Live traffic after bootstrap: more objects plus one full scale-up.
	for i := 5; i < 10; i++ {
		if err := srv.AddObject(testObject(i, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.ScaleUp(1); err != nil {
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
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	durable, epoch := st.Durable()
	v := waitApplied(t, f, durable, 5*time.Second)
	if v.Epoch != epoch {
		t.Fatalf("replica epoch %d, leader durable epoch %d", v.Epoch, epoch)
	}

	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	assertConverged(t, srv, f.Server())

	// The replica answers lookups with its applied LSN attached.
	disk, lsn, err := f.Locate(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != durable {
		t.Fatalf("read claimed LSN %d, want %d", lsn, durable)
	}
	if disk < 0 || disk >= 5 {
		t.Fatalf("block 0/0 on disk %d, want 0..4", disk)
	}
}

// TestFollowerResume: a dropped connection resumes from the applied LSN
// instead of re-bootstrapping.
func TestFollowerResume(t *testing.T) {
	srv, st, ldr := newLeader(t, t.TempDir(), store.Config{}, 3)
	f := startTestFollower(t, ldr.Addr().String(), nil)
	durable, _ := st.Durable()
	waitApplied(t, f, durable, 5*time.Second)

	// Sever every live connection; the follower must reconnect and resume.
	ldr.mu.Lock()
	for c := range ldr.conns {
		c.Close()
	}
	ldr.mu.Unlock()

	for i := 100; i < 105; i++ {
		if err := srv.AddObject(testObject(i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	durable, _ = st.Durable()
	waitApplied(t, f, durable, 5*time.Second)

	// The leader must have served this as a resume, not a re-bootstrap.
	if st := f.Status(); st.Snapshots != 1 {
		t.Fatalf("follower applied %d snapshots, want 1 (resume after drop)", st.Snapshots)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	assertConverged(t, srv, f.Server())
}

// scriptedLeader runs a fake leader speaking raw frames from a script, for
// deterministic fencing/staleness tests the real leader cannot time. Every
// connection gets the hello plus the full frame history so far — a
// follower reconnect replays the script (duplicates are skipped by design)
// and no sent frame can be lost to a dead connection.
type scriptedLeader struct {
	ln     net.Listener
	mu     sync.Mutex
	hello  []byte
	frames [][]byte
}

func (sl *scriptedLeader) send(payload []byte) {
	sl.mu.Lock()
	sl.frames = append(sl.frames, payload)
	sl.mu.Unlock()
}

func startScriptedLeader(t *testing.T, hello []byte) *scriptedLeader {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sl := &scriptedLeader{ln: ln, hello: hello}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				if _, _, err := readHandshake(conn); err != nil {
					return
				}
				w := bufio.NewWriter(conn)
				if err := frame.Write(w, sl.hello, maxFrameLen); err != nil {
					return
				}
				if err := w.Flush(); err != nil {
					return
				}
				for sent := 0; ; {
					sl.mu.Lock()
					pending := sl.frames[sent:]
					sl.mu.Unlock()
					for _, payload := range pending {
						if err := frame.Write(w, payload, maxFrameLen); err != nil {
							return
						}
						sent++
					}
					if err := w.Flush(); err != nil {
						return
					}
					time.Sleep(5 * time.Millisecond)
				}
			}(conn)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return sl
}

// snapshotHelloFor renders a helloSnapshot for a server's current state.
func snapshotHelloFor(t *testing.T, srv *cm.Server, lsn, epoch, durable, leaderEpoch uint64) []byte {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Bootstrap(srv); err != nil {
		t.Fatal(err)
	}
	_, _, data, err := st.CheckpointData()
	if err != nil {
		t.Fatal(err)
	}
	// Bootstrap checkpoints carry LSN 0 / epoch 0 — exactly the base the
	// scripted scenarios want.
	if lsn != 0 || epoch != 0 {
		t.Fatalf("scripted scenarios start at LSN 0, got %d/%d", lsn, epoch)
	}
	return encodeHelloSnapshot(helloSnapshot{
		ckptLSN:     lsn,
		ckptEpoch:   epoch,
		durableLSN:  durable,
		leaderEpoch: leaderEpoch,
		ckptData:    data,
	})
}

// TestEpochFencing: a heartbeat advertising an unapplied scaling epoch
// fences reads until the epoch event arrives and is applied.
func TestEpochFencing(t *testing.T) {
	srv := newTestServer(t, testConfig(), 4)
	for i := 0; i < 3; i++ {
		if err := srv.AddObject(testObject(i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	hello := snapshotHelloFor(t, srv, 0, 0, 0, 0)
	sl := startScriptedLeader(t, hello)
	f := startTestFollower(t, sl.ln.Addr().String(), nil)
	waitApplied(t, f, 0, 5*time.Second)

	// Reads work at epoch parity.
	if _, _, err := f.Locate(0, 0); err != nil {
		t.Fatalf("read at epoch parity: %v", err)
	}

	// The leader journals a scaling op we have not seen: heartbeat says
	// durable epoch 1. Reads must fence.
	sl.send(encodeHeartbeat(heartbeat{durableLSN: 1, durableEpoch: 1}))
	waitFor(t, func() bool {
		_, _, err := f.Locate(0, 0)
		return errors.Is(err, cm.ErrEpochFenced)
	}, "read to fence on epoch skew")

	// Shipping and applying the scaling event clears the fence.
	ev, err := store.EncodeEvent(cm.Event{Kind: cm.EventScaleUpStarted, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	sl.send(encodeRecord(1, ev))
	waitFor(t, func() bool {
		_, _, err := f.Locate(0, 0)
		return err == nil
	}, "fence to clear after applying the epoch event")
	v := f.View()
	if v.Epoch != 1 || v.AppliedLSN != 1 {
		t.Fatalf("view at LSN %d epoch %d, want 1/1", v.AppliedLSN, v.Epoch)
	}
}

// TestStalenessBudget: falling behind the lag budget turns reads into
// ErrStaleRead until the replica catches up.
func TestStalenessBudget(t *testing.T) {
	srv := newTestServer(t, testConfig(), 4)
	if err := srv.AddObject(testObject(0, 2)); err != nil {
		t.Fatal(err)
	}
	hello := snapshotHelloFor(t, srv, 0, 0, 0, 0)
	sl := startScriptedLeader(t, hello)
	f := startTestFollower(t, sl.ln.Addr().String(), func(c *FollowerConfig) {
		c.MaxLagEvents = 3
	})
	waitApplied(t, f, 0, 5*time.Second)

	// Lag 2: inside budget, reads still served.
	sl.send(encodeHeartbeat(heartbeat{durableLSN: 2}))
	waitFor(t, func() bool { return f.View().LeaderLSN == 2 }, "heartbeat to land")
	if _, _, err := f.Locate(0, 0); err != nil {
		t.Fatalf("read inside lag budget: %v", err)
	}

	// Lag 10: over budget.
	sl.send(encodeHeartbeat(heartbeat{durableLSN: 10}))
	waitFor(t, func() bool {
		_, _, err := f.Locate(0, 0)
		return errors.Is(err, cm.ErrStaleRead)
	}, "read to fail over lag budget")

	// Catch up: ship records 1..10 (plain object adds, no epoch events).
	for lsn := uint64(1); lsn <= 10; lsn++ {
		ev, err := store.EncodeEvent(cm.Event{Kind: cm.EventObjectAdded, Object: testObject(int(lsn)+10, 2)})
		if err != nil {
			t.Fatal(err)
		}
		sl.send(encodeRecord(lsn, ev))
	}
	waitFor(t, func() bool {
		_, _, err := f.Locate(0, 0)
		return err == nil
	}, "reads to resume after catching up")
}

// TestFollowerNotBootstrapped: reads before any snapshot are stale, typed.
func TestFollowerNotBootstrapped(t *testing.T) {
	// Dial something that will never answer usefully: a listener that
	// accepts and stays silent.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()
	f := startTestFollower(t, ln.Addr().String(), func(c *FollowerConfig) {
		c.ReadTimeout = 100 * time.Millisecond
	})
	if _, _, err := f.Locate(0, 0); !errors.Is(err, cm.ErrStaleRead) {
		t.Fatalf("pre-bootstrap read: err = %v, want ErrStaleRead", err)
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
