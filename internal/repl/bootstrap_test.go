package repl

// Follower bootstrap across the store's checkpoint-retention states:
//
//   1. a fresh store — only the bootstrap checkpoint, events all in the
//      journal tail
//   2. the newest checkpoint corrupted on disk — the store's retain-2
//      policy falls back to its predecessor, and the follower bootstraps
//      from the older checkpoint with a longer tail replay
//   3. a healthy checkpoint plus a partial tail past it
//
// Each case asserts applied-LSN continuity: the follower lands exactly on
// the leader's durable frontier having entered at the checkpoint's LSN,
// and its state is byte-identical (the stream's gap check makes any
// skipped or repeated LSN a connection error, so arriving at the frontier
// proves the walk was contiguous).

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"scaddar/internal/obs"
	"scaddar/internal/store"
)

// appendObjects journals n object adds through the leader's sink.
func appendObjects(t *testing.T, cl *chaosLeader, startID, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := cl.srv.AddObject(testObject(startID+i, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.st.Sync(); err != nil {
		t.Fatal(err)
	}
}

// bootstrapAndCheck starts a fresh follower against the leader, waits for
// it to reach the durable frontier, and asserts continuity + convergence.
// Returns the bootstrap LSN the follower entered at.
func bootstrapAndCheck(t *testing.T, cl *chaosLeader, wantCkptLSN uint64) {
	t.Helper()
	durable, _ := cl.st.Durable()
	f := startTestFollower(t, cl.ldr.Addr().String(), nil)
	waitApplied(t, f, durable, 10*time.Second)

	st := f.Status()
	if st.Snapshots != 1 {
		t.Fatalf("follower applied %d snapshots, want exactly 1", st.Snapshots)
	}
	ckLSN, _, _, err := cl.st.CheckpointData()
	if err != nil {
		t.Fatal(err)
	}
	if ckLSN != wantCkptLSN {
		t.Fatalf("leader serves checkpoint at LSN %d, want %d", ckLSN, wantCkptLSN)
	}
	if st.AppliedLSN != durable {
		t.Fatalf("follower applied LSN %d, leader durable %d", st.AppliedLSN, durable)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	assertConverged(t, cl.srv, f.Server())
}

// newBootstrapLeader opens a small-segment store, bootstraps a server into
// it, and serves replication on a fresh port.
func newBootstrapLeader(t *testing.T, dir string) *chaosLeader {
	t.Helper()
	srv, st, ldr := newLeader(t, dir, store.Config{SegmentBytes: 1 << 10}, 0)
	return &chaosLeader{t: t, dir: dir, addr: ldr.Addr().String(), srv: srv, st: st, ldr: ldr}
}

// TestBootstrapFreshStore: state 1 — bootstrap checkpoint only, the whole
// history rides the tail stream.
func TestBootstrapFreshStore(t *testing.T) {
	cl := newBootstrapLeader(t, t.TempDir())
	appendObjects(t, cl, 0, 12)
	bootstrapAndCheck(t, cl, 0) // bootstrap checkpoint covers LSN 0
}

// TestBootstrapRetainFallback: state 2 — the newest checkpoint file is
// corrupt; reopening the store falls back to the retained predecessor and
// followers bootstrap from it with the longer replay.
func TestBootstrapRetainFallback(t *testing.T) {
	dir := t.TempDir()
	cl := newBootstrapLeader(t, dir)
	appendObjects(t, cl, 0, 10)
	ck1, err := cl.st.Checkpoint(cl.srv)
	if err != nil {
		t.Fatal(err)
	}
	appendObjects(t, cl, 10, 10)
	ck2, err := cl.st.Checkpoint(cl.srv)
	if err != nil {
		t.Fatal(err)
	}
	if ck2 <= ck1 {
		t.Fatalf("checkpoints did not advance: %d then %d", ck1, ck2)
	}
	appendObjects(t, cl, 20, 5)

	// Crash the leader, corrupt the newest checkpoint on disk, restart.
	cl.kill()
	corruptCheckpoint(t, dir, ck2)
	cl.restart()
	t.Cleanup(func() { cl.ldr.Close(); cl.st.Close() })

	bootstrapAndCheck(t, cl, ck1)
}

// TestBootstrapPartialTail: state 3 — healthy checkpoint plus events past
// it; the follower enters at the checkpoint and streams the partial tail.
func TestBootstrapPartialTail(t *testing.T) {
	cl := newBootstrapLeader(t, t.TempDir())
	appendObjects(t, cl, 0, 8)
	ck, err := cl.st.Checkpoint(cl.srv)
	if err != nil {
		t.Fatal(err)
	}
	appendObjects(t, cl, 8, 7)
	durable, _ := cl.st.Durable()
	if durable <= ck {
		t.Fatalf("no tail past the checkpoint (durable %d, ckpt %d)", durable, ck)
	}
	bootstrapAndCheck(t, cl, ck)
}

// corruptCheckpoint flips a byte in the payload of the checkpoint file
// covering lsn.
func corruptCheckpoint(t *testing.T, dir string, lsn uint64) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "ckpt-") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		gotLSN, _, _, _, err := store.DecodeCheckpointData(data)
		if err != nil || gotLSN != lsn {
			continue
		}
		data[len(data)-1] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatalf("no checkpoint covering LSN %d in %s", lsn, dir)
}

// TestOversizeCheckpointIsNotShipped: a checkpoint that does not fit the
// frame bound every follower reads under is refused by the leader's own
// writer — nothing crosses the wire, on the first attempt or on a retry, the
// snapshot counters stay at zero, and the log says why. (At the parent the
// hello was framed unchecked, dropped by the follower as corrupt, and shipped
// again on every reconnect.)
func TestOversizeCheckpointIsNotShipped(t *testing.T) {
	srv := newTestServer(t, testConfig(), 4)
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Bootstrap(srv); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var logged []string
	reg := obs.NewRegistry()
	ldr, err := NewLeader(LeaderConfig{Store: st, Registry: reg, Logf: func(format string, args ...any) {
		mu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	_, _, ckpt, err := st.CheckpointData()
	if err != nil {
		t.Fatal(err)
	}
	ldr.maxFrame = uint32(len(ckpt)) // the hello adds its own fields: one byte too many is enough
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ldr.Serve(ln)
	for attempt := 1; attempt <= 2; attempt++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write(encodeHandshake(0, journalID{})); err != nil {
			t.Fatal(err)
		}
		if got, err := io.ReadAll(conn); err != nil || len(got) != 0 {
			t.Fatalf("attempt %d: follower received %d bytes (err %v), want a clean close with none", attempt, len(got), err)
		}
		conn.Close()
	}
	ldr.Close() // joins the connection goroutines: their log lines are in
	if n := ldr.metrics.snapshots.Value(); n != 0 {
		t.Errorf("repl_leader_snapshots_total = %d after two refused bootstraps, want 0", n)
	}
	reasons := 0
	for _, line := range logged {
		if strings.Contains(line, fmt.Sprintf("checkpoint of %d bytes exceeds the", len(ckpt))) && strings.Contains(line, "frame bound") {
			reasons++
		}
	}
	if reasons != 2 {
		t.Errorf("leader logged the refusal %d times, want once per attempt; log:\n%s", reasons, strings.Join(logged, "\n"))
	}
}
