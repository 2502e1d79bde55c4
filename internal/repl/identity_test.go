package repl

// Journal-identity regression tests. LSNs are per-journal counters, so a
// resume position is only meaningful against the journal it was applied
// from. These tests pin the two protections: the leader refuses to resume a
// follower carrying another journal's state (found live: an orphaned
// follower reconnected to a freshly-bootstrapped leader on the same address
// and was "resumed" at a numerically-plausible LSN), and refuses to resume
// a position ahead of its own durable frontier.

import (
	"bufio"
	"bytes"
	"net"
	"testing"
	"time"

	"scaddar/internal/frame"
	"scaddar/internal/store"
)

func TestHandshakeRoundTrip(t *testing.T) {
	id := journalID{0: 0xab, 15: 0xcd}
	fromLSN, gotID, err := readHandshake(bytes.NewReader(encodeHandshake(42, id)))
	if err != nil {
		t.Fatal(err)
	}
	if fromLSN != 42 || gotID != id {
		t.Fatalf("round trip: got fromLSN=%d id=%x, want 42/%x", fromLSN, gotID, id)
	}
}

// TestJournalSwitchForcesBootstrap: a follower that applied journal A and
// then reconnects to a leader shipping journal B (same address, overlapping
// LSN range) must be re-bootstrapped from B's checkpoint, never resumed —
// and must converge to B's state exactly.
func TestJournalSwitchForcesBootstrap(t *testing.T) {
	_, stA, ldrA := newLeader(t, t.TempDir(), store.Config{}, 3)
	addr := ldrA.Addr().String()

	f := startTestFollower(t, addr, nil)
	waitApplied(t, f, stA.LSN(), 2*time.Second)
	if st := f.Status(); st.JournalID != stA.JournalID() {
		t.Fatalf("follower applied journal %q, leader ships %q", st.JournalID, stA.JournalID())
	}

	// Kill leader A and put a leader for a *different* journal on the same
	// address, with a durable frontier past the follower's applied LSN so
	// only the identity check can catch the switch.
	ldrA.Close()
	dirB := t.TempDir()
	srvB := newTestServer(t, testConfig(), 4)
	stB, err := store.Open(store.Config{Dir: dirB})
	if err != nil {
		t.Fatal(err)
	}
	defer stB.Close()
	if err := stB.Bootstrap(srvB); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := srvB.AddObject(testObject(100+i, 5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := stB.Sync(); err != nil {
		t.Fatal(err)
	}
	if stB.LSN() <= stA.LSN() {
		t.Fatalf("journal B frontier %d not past A's %d: test would not isolate the identity check",
			stB.LSN(), stA.LSN())
	}
	ldrB, err := NewLeader(LeaderConfig{Store: stB, Heartbeat: 50 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	ldrB.Serve(ln)
	defer ldrB.Close()

	waitApplied(t, f, stB.LSN(), 2*time.Second)
	st := f.Status()
	if st.JournalID != stB.JournalID() {
		t.Fatalf("follower still reports journal %q, want B's %q", st.JournalID, stB.JournalID())
	}
	if st.Snapshots != 2 {
		t.Fatalf("follower applied %d snapshots, want 2 (one per journal)", st.Snapshots)
	}
	f.Close()
	assertConverged(t, srvB, f.Server())
}

// TestResumeGate probes the leader's handshake decision at the wire: a
// matching identity at the frontier resumes, a foreign identity or a
// position past the durable frontier gets a snapshot.
func TestResumeGate(t *testing.T) {
	_, st, ldr := newLeader(t, t.TempDir(), store.Config{}, 2)
	myID, err := parseJournalID(st.JournalID())
	if err != nil {
		t.Fatal(err)
	}
	foreign := myID
	foreign[0] ^= 0xff
	durable, _ := st.Durable()

	cases := []struct {
		name      string
		fromLSN   uint64
		id        journalID
		wantFrame byte
	}{
		{"matching identity at frontier resumes", durable + 1, myID, frameHelloResume},
		{"foreign identity forces snapshot", durable + 1, foreign, frameHelloSnapshot},
		{"position past frontier forces snapshot", durable + 10, myID, frameHelloSnapshot},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.DialTimeout("tcp", ldr.Addr().String(), time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(encodeHandshake(tc.fromLSN, tc.id)); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			payload, err := frame.Read(bufio.NewReader(conn), new([]byte), maxFrameLen)
			if err != nil {
				t.Fatal(err)
			}
			if payload[0] != tc.wantFrame {
				t.Fatalf("leader answered frame type %d, want %d", payload[0], tc.wantFrame)
			}
		})
	}
}
