package store

import (
	"errors"
	"testing"

	"scaddar/internal/cm"
	"scaddar/internal/obs"
)

// TestReplayMidDrainEqualsLive cuts the journal in the middle of a
// migration — once during a scale-up, once during a scale-down — recovers a
// copy, and holds the recovered server against the live one: every block on
// the same disk through the server's own lookup and through a snapshot, the
// same moves still pending, and, after both drain to the end, the same final
// placement. Replay executes journaled moves by block, not by plan position,
// so this is what pins ExecuteBlock to Step.
func TestReplayMidDrainEqualsLive(t *testing.T) {
	for _, op := range []struct {
		name  string
		start func(*cm.Server) error
	}{
		{"scale-up", func(s *cm.Server) error { _, err := s.ScaleUp(2); return err }},
		{"scale-down", func(s *cm.Server) error { _, err := s.ScaleDown(1, 4); return err }},
	} {
		t.Run(op.name, func(t *testing.T) {
			dir := t.TempDir()
			live := newTestServer(t, testConfig(), 6)
			loadObjects(t, live, 6, 300)
			st := openStore(t, dir)
			defer st.Close()
			if err := st.Bootstrap(live); err != nil {
				t.Fatal(err)
			}
			if err := op.start(live); err != nil {
				t.Fatal(err)
			}
			planned := live.MigrationRemaining()
			for live.MigrationRemaining() > planned/2 {
				if err := live.Tick(); err != nil {
					t.Fatal(err)
				}
			}
			if !live.Reorganizing() || live.MigrationRemaining() == planned {
				t.Fatalf("fixture is not mid-drain: %d of %d moves left", live.MigrationRemaining(), planned)
			}
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
			copyTo := t.TempDir()
			copyDir(t, dir, copyTo)
			st2 := openStore(t, copyTo)
			defer st2.Close()
			recovered, _ := recoverServer(t, st2)

			same := func(when string) {
				t.Helper()
				if got, want := recovered.MigrationRemaining(), live.MigrationRemaining(); got != want {
					t.Fatalf("%s: recovered server has %d moves pending, live %d", when, got, want)
				}
				for o := 0; o < 6; o++ {
					for i := 0; i < 300; i++ {
						want, err := live.Lookup(o, i)
						if err != nil {
							t.Fatalf("%s: live Lookup(%d,%d): %v", when, o, i, err)
						}
						got, err := recovered.Lookup(o, i)
						if err != nil {
							t.Fatalf("%s: recovered Lookup(%d,%d): %v", when, o, i, err)
						}
						if got.ID() != want.ID() {
							t.Fatalf("%s: block %d/%d recovered on disk %d, live serves it from %d", when, o, i, got.ID(), want.ID())
						}
					}
				}
				assertSameState(t, captureState(t, live), captureState(t, recovered))
			}
			same("mid-drain")
			drain(t, live)
			drain(t, recovered)
			same("drained")
			if err := recovered.VerifyIntegrity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSyncSkipsCleanJournal: a Sync with nothing appended since the last one
// issues no fsync and takes no histogram sample; an append makes the next
// Sync advance the durable frontier and wake DurableNotify exactly as
// before; and a sticky journal error still surfaces from an idle Sync.
func TestSyncSkipsCleanJournal(t *testing.T) {
	srv := newTestServer(t, testConfig(), 4)
	// Group commit left to explicit Sync calls, as the gateway runs it.
	st, err := Open(Config{Dir: t.TempDir(), SyncEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := obs.NewRegistry()
	st.Observe(reg)
	if err := st.Bootstrap(srv); err != nil {
		t.Fatal(err)
	}
	fsyncs := reg.NewCounter("store_fsyncs_total", "")
	samples := func() uint64 {
		return reg.NewHistogram("store_fsync_seconds", "", obs.LatencyBuckets()).Count()
	}
	base, baseSamples := fsyncs.Value(), samples()
	lsn0, ch := st.DurableNotify()
	for i := 0; i < 100; i++ {
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if got := fsyncs.Value(); got != base || samples() != baseSamples {
		t.Fatalf("100 idle Syncs issued %d fsyncs and %d samples", got-base, samples()-baseSamples)
	}
	select {
	case <-ch:
		t.Fatal("idle Sync woke DurableNotify")
	default:
	}

	if _, err := st.Append(cm.Event{Kind: cm.EventReorgCompleted}); err != nil {
		t.Fatal(err)
	}
	if lsn, _ := st.Durable(); lsn != lsn0 {
		t.Fatalf("durable LSN %d before the sync, want %d", lsn, lsn0)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if lsn, _ := st.Durable(); lsn != lsn0+1 || fsyncs.Value() != base+1 {
		t.Fatalf("after append + Sync: durable LSN %d (want %d), %d fsyncs (want 1)", lsn, lsn0+1, fsyncs.Value()-base)
	}
	select {
	case <-ch:
	default:
		t.Fatal("DurableNotify did not fire after append + Sync")
	}

	boom := errors.New("injected journal failure")
	st.mu.Lock()
	_ = st.fail(boom)
	st.mu.Unlock()
	if err := st.Sync(); !errors.Is(err, boom) {
		t.Fatalf("idle Sync after a journal failure = %v, want the sticky error", err)
	}
}
