package store

import (
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"scaddar/internal/cm"
	"scaddar/internal/frame"
)

// Crash-injection harness. crashScript drives a journaled server through
// every state-changing operation the store knows how to replay — object
// adds and removals, a multi-round scale-up drain, a disk failure, repair,
// and rebuild under mirror redundancy, a scale-down, and a full
// redistribution — capturing a golden locator state after every journaled
// event. The injection tests then simulate a kill at arbitrary byte offsets
// of the journal (record boundaries, mid-header, mid-CRC, mid-payload) by
// truncating a copy of the data directory there, recover, and assert the
// recovered locator agrees block-for-block with the survivor at the LSN the
// journal still covers: with SyncEvery=1, at most the records past the cut
// (the un-fsynced batch) are lost, never anything before it.

// crashScript populates dir and returns the golden state after every LSN.
func crashScript(t *testing.T, dir string) map[uint64]*locatorState {
	t.Helper()
	cfg := testConfig()
	cfg.Redundancy = cm.RedundancyMirror
	srv := newTestServer(t, cfg, 4)
	loadObjects(t, srv, 4, 40)

	st, err := Open(Config{Dir: dir, SegmentBytes: 2 << 10, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Bootstrap(srv); err != nil {
		t.Fatal(err)
	}
	golden := map[uint64]*locatorState{0: captureState(t, srv)}
	inner := st.Sink()
	srv.SetEventSink(func(ev cm.Event) {
		inner(ev)
		if err := st.Err(); err != nil {
			t.Fatal(err)
		}
		golden[st.LSN()] = captureState(t, srv)
	})

	step := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	tick := func() { step(srv.Tick()) }
	drainAll := func() {
		for i := 0; srv.Reorganizing() || srv.RebuildRemaining() > 0; i++ {
			if i > 10000 {
				t.Fatal("drain stuck")
			}
			tick()
		}
	}

	step(srv.AddObject(testObject(10, 25)))
	step(srv.RemoveObject(3))

	_, err = srv.ScaleUp(2)
	step(err)
	drainAll()
	step(srv.FinishReorganization())

	step(srv.FailDisk(1))
	step(srv.RepairDisk(1))
	drainAll()

	// A mid-journal checkpoint: kills landing before it recover to the
	// checkpoint itself (its state equals the golden at its LSN).
	_, err = st.Checkpoint(srv)
	step(err)

	_, err = srv.ScaleDown(2)
	step(err)
	drainAll()
	step(srv.FinishReorganization())

	_, err = srv.FullRedistribute()
	step(err)
	drainAll()
	step(srv.FinishReorganization())

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return golden
}

// segmentsOf lists dir's segments in ascending LSN order.
func segmentsOf(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if _, ok := parseLSNName(e.Name(), segPrefix, segSuffix); ok {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}

// recoverAndCompare opens a (possibly mutilated) clone of the data
// directory, recovers, and asserts agreement with the survivor's golden
// state at whatever LSN survived.
func recoverAndCompare(t *testing.T, dir string, golden map[uint64]*locatorState) {
	t.Helper()
	st, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("open after simulated crash: %v", err)
	}
	defer st.Close()
	srv, info, err := st.Recover(testX0())
	if err != nil {
		t.Fatalf("recover after simulated crash: %v", err)
	}
	want, ok := golden[info.LSN]
	if !ok {
		t.Fatalf("recovered to LSN %d, which the survivor never journaled", info.LSN)
	}
	t.Logf("comparing recovered state at LSN %d (replayed %d events)", info.LSN, info.ReplayedEvents)
	assertSameState(t, want, captureState(t, srv))
}

func TestCrashRecoveryAtEveryKillPoint(t *testing.T) {
	master := t.TempDir()
	golden := crashScript(t, master)
	segs := segmentsOf(t, master)
	rnd := rand.New(rand.NewSource(1))

	kills := 0
	for i := len(segs) - 1; i >= 0; i-- {
		data, err := os.ReadFile(filepath.Join(master, segs[i]))
		if err != nil {
			t.Fatal(err)
		}
		bounds := recordBounds(t, data)
		// Kill points: the bare header, then per record a clean boundary
		// plus cuts inside the length field, the CRC field, and the payload.
		cuts := []int64{segHeaderLen}
		for _, b := range bounds {
			payload := b[1] - b[0] - frame.HeaderLen
			cuts = append(cuts,
				b[0]+1+rnd.Int63n(3),                     // mid length
				b[0]+4+1+rnd.Int63n(3),                   // mid CRC
				b[0]+frame.HeaderLen+rnd.Int63n(payload), // mid payload
				b[1], // clean record boundary
			)
		}
		for _, cut := range cuts {
			clone := t.TempDir()
			copyDir(t, master, clone)
			// The crash froze the journal at this byte: later segments
			// never existed.
			for k := i + 1; k < len(segs); k++ {
				if err := os.Remove(filepath.Join(clone, segs[k])); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.Truncate(filepath.Join(clone, segs[i]), cut); err != nil {
				t.Fatal(err)
			}
			recoverAndCompare(t, clone, golden)
			kills++
		}
	}
	if kills < 20 {
		t.Fatalf("harness exercised only %d kill points; the script is too short", kills)
	}
}

func TestCrashMidCheckpoint(t *testing.T) {
	master := t.TempDir()
	golden := crashScript(t, master)

	// Find the two retained checkpoints; the newer one is the mid-script
	// checkpoint whose write we kill.
	entries, err := os.ReadDir(master)
	if err != nil {
		t.Fatal(err)
	}
	var ckpts []uint64
	for _, e := range entries {
		if lsn, ok := parseLSNName(e.Name(), ckptPrefix, ckptSuffix); ok {
			ckpts = append(ckpts, lsn)
		}
	}
	if len(ckpts) != 2 {
		t.Fatalf("script left %d checkpoints, want 2", len(ckpts))
	}
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i] < ckpts[j] })
	newest := filepath.Join(master, checkpointName(ckpts[1]))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}

	rnd := rand.New(rand.NewSource(2))
	for trial := 0; trial < 8; trial++ {
		clone := t.TempDir()
		copyDir(t, master, clone)
		target := filepath.Join(clone, checkpointName(ckpts[1]))
		if trial%2 == 0 {
			// Torn write: only a prefix of the checkpoint reached disk.
			if err := os.Truncate(target, rnd.Int63n(int64(len(data)))); err != nil {
				t.Fatal(err)
			}
		} else {
			// Bit rot / interrupted overwrite: a flipped byte.
			mut := append([]byte(nil), data...)
			mut[rnd.Intn(len(mut))] ^= 1 << uint(rnd.Intn(8))
			if err := os.WriteFile(target, mut, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		// Recovery must fall back to the older checkpoint and replay the
		// full journal to the final state — unless the mutation happened to
		// keep the file valid (WriteFileAtomic makes a half-written file
		// impossible in reality; this simulates the weaker no-atomicity
		// world too).
		st, err := Open(Config{Dir: clone})
		if err != nil {
			t.Fatalf("trial %d: open: %v", trial, err)
		}
		srv, info, err := st.Recover(testX0())
		if err != nil {
			t.Fatalf("trial %d: recover: %v", trial, err)
		}
		want, ok := golden[info.LSN]
		if !ok {
			t.Fatalf("trial %d: recovered to unjournaled LSN %d", trial, info.LSN)
		}
		assertSameState(t, want, captureState(t, srv))
		st.Close()
	}
}
