package store

import (
	"errors"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"

	"scaddar/internal/cm"
	"scaddar/internal/obs"
)

// The contract of the behind-sync (store.go, AppendBehind and Sync): a record
// appended behind is not durable until a group commit covers it, a Sync
// covers everything appended before it began and never mistakes a record
// another Sync flushed for a durable one, one fsync runs at a time, and any
// fsync error fails the journal.

// migrated is a one-move EventBlocksMigrated for object 0.
func migrated(i int) cm.Event {
	return cm.Event{Kind: cm.EventBlocksMigrated, Moves: []cm.BlockPos{{Object: 0, Index: uint64(i)}}}
}

// TestAppendBehindWaitsForCommit: at SyncEvery 1 an AppendBehind leaves the
// durable frontier and the tail alone; one Sync then makes the whole
// batch durable in one fsync, visible to a journal tail, and wakes
// DurableNotify.
func TestAppendBehindWaitsForCommit(t *testing.T) {
	srv := newTestServer(t, testConfig(), 4)
	loadObjects(t, srv, 1, 50)
	st := openStore(t, t.TempDir())
	defer st.Close()
	reg := obs.NewRegistry()
	st.Observe(reg)
	if err := st.Bootstrap(srv); err != nil {
		t.Fatal(err)
	}
	fsyncs := reg.NewCounter("store_fsyncs_total", "")
	batches := reg.NewHistogram("store_fsync_batch_records", "", obs.SizeBuckets())
	base, frontier := fsyncs.Value(), st.LSN()
	lsn0, woke := st.DurableNotify()
	for i := 0; i < 5; i++ {
		if _, err := st.AppendBehind(migrated(i)); err != nil {
			t.Fatal(err)
		}
	}
	tail := st.NewTailReader(frontier + 1)
	defer tail.Close()
	if lsn, _ := st.Durable(); lsn != lsn0 || fsyncs.Value() != base {
		t.Fatalf("five appends behind: durable LSN %d (want %d), %d fsyncs", lsn, lsn0, fsyncs.Value()-base)
	}
	if recs, err := tail.Next(0); err != nil || len(recs) != 0 {
		t.Fatalf("the tail read %d records nobody committed (%v)", len(recs), err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-woke:
	default:
		t.Fatal("Sync did not wake DurableNotify")
	}
	if lsn, _ := st.Durable(); lsn != st.LSN() || fsyncs.Value() != base+1 || batches.Snapshot().Max < 5 {
		t.Fatalf("after Sync: durable LSN %d of %d, %d fsyncs, largest batch %g", lsn, st.LSN(), fsyncs.Value()-base, batches.Snapshot().Max)
	}
	if recs, err := tail.Next(0); err != nil || len(recs) != 5 {
		t.Fatalf("the tail read %d of the 5 committed records (%v)", len(recs), err)
	}
	if err := st.Sync(); err != nil || fsyncs.Value() != base+1 {
		t.Fatalf("a Sync with nothing behind: %v, %d fsyncs", err, fsyncs.Value()-base)
	}
}

// held runs a Sync whose fsync waits for the test and returns once that
// fsync is in flight; end lets it finish — failing with err, if not nil —
// and returns what the Sync returned. Later fsyncs run as usual.
func held(t *testing.T, st *Store) (end func(err error) error) {
	t.Helper()
	inFlight, outcome, synced := make(chan struct{}), make(chan error), make(chan error, 1)
	var first sync.Once
	fsync = func(f *os.File) (err error) {
		first.Do(func() {
			close(inFlight)
			err = <-outcome
		})
		if err != nil {
			return err
		}
		return f.Sync()
	}
	t.Cleanup(func() { fsync = (*os.File).Sync })
	go func() { synced <- st.Sync() }()
	<-inFlight
	return func(err error) error {
		outcome <- err
		return <-synced
	}
}

// waiting runs each call on its own goroutine and checks that none returns
// while the held fsync is in flight; the result is each call's error.
func waiting(t *testing.T, calls ...func() error) []chan error {
	t.Helper()
	done := make([]chan error, len(calls))
	for i, call := range calls {
		done[i] = make(chan error, 1)
		go func() { done[i] <- call() }()
	}
	time.Sleep(50 * time.Millisecond)
	for i, ch := range done {
		select {
		case err := <-ch:
			t.Fatalf("call %d returned (%v) while an fsync was in flight", i, err)
		default:
		}
	}
	return done
}

// TestSyncWaitsForTheFsyncInFlight holds a Sync between its flush and its
// fsync — the records are in the file, not on the disk — with more records
// appended behind it. Another Sync, a synced Append, a checkpoint and Close
// each wait for it rather than fsync beside it or close its segment under it;
// once it succeeds they finish, everything is durable, and the journal
// reopens whole.
func TestSyncWaitsForTheFsyncInFlight(t *testing.T) {
	srv := newTestServer(t, testConfig(), 4)
	loadObjects(t, srv, 1, 50)
	dir := t.TempDir()
	st := openStore(t, dir)
	if err := st.Bootstrap(srv); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := st.AppendBehind(migrated(i)); err != nil {
			t.Fatal(err)
		}
	}
	lsn0, _ := st.Durable()
	end := held(t, st)
	if _, err := st.AppendBehind(migrated(3)); err != nil {
		t.Fatal(err)
	}
	done := waiting(t,
		st.Sync,
		func() error { _, err := st.Append(migrated(4)); return err },
		func() error { _, err := st.Checkpoint(srv); return err },
	)
	if lsn, _ := st.Durable(); lsn != lsn0 {
		t.Fatalf("durable LSN %d while the only fsync was in flight, want %d", lsn, lsn0)
	}
	if err := end(nil); err != nil {
		t.Fatal(err)
	}
	for i, ch := range done {
		if err := <-ch; err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if lsn, _ := st.Durable(); lsn != st.LSN() {
		t.Fatalf("durable LSN %d of %d once every Sync returned", lsn, st.LSN())
	}

	if _, err := st.AppendBehind(migrated(5)); err != nil {
		t.Fatal(err)
	}
	end = held(t, st)
	closed := waiting(t, st.Close)
	if err := end(nil); err != nil {
		t.Fatal(err)
	}
	if err := <-closed[0]; err != nil || st.Err() != nil {
		t.Fatalf("Close after a held Sync: %v (journal: %v)", err, st.Err())
	}
	want := st.LSN()
	st2 := openStore(t, dir)
	defer st2.Close()
	if got := st2.LSN(); got != want {
		t.Fatalf("reopened at LSN %d, %d appended", got, want)
	}
}

// TestSyncFailureIsNotOvertaken fails the held fsync while another Sync and a
// synced Append wait on the same, still-active segment. Linux reports a lost
// write-back to one fsync of the file only, so had either fsynced beside the
// held one it could have succeeded and vouched for the lost records: instead
// both fail with the journal, and the durable frontier never moves.
func TestSyncFailureIsNotOvertaken(t *testing.T) {
	srv := newTestServer(t, testConfig(), 4)
	loadObjects(t, srv, 1, 50)
	st := openStore(t, t.TempDir())
	defer st.Close()
	if err := st.Bootstrap(srv); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendBehind(migrated(0)); err != nil {
		t.Fatal(err)
	}
	lsn0, _ := st.Durable()
	end := held(t, st)
	done := waiting(t,
		st.Sync,
		func() error { _, err := st.Append(migrated(1)); return err },
	)
	if err := end(syscall.EIO); !errors.Is(err, syscall.EIO) {
		t.Fatalf("the held Sync's failure returned %v", err)
	}
	for i, ch := range done {
		if err := <-ch; !errors.Is(err, syscall.EIO) {
			t.Fatalf("call %d waiting on a failed fsync returned %v", i, err)
		}
	}
	if lsn, _ := st.Durable(); lsn != lsn0 || !errors.Is(st.Err(), syscall.EIO) {
		t.Fatalf("after a failed fsync: durable LSN %d (want %d), journal %v", lsn, lsn0, st.Err())
	}
	if err := st.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("a later Sync returned %v, want the sticky failure", err)
	}
}

// TestSyncRacesRotation runs a committer beside a writer whose journal
// rotates every few records and checkpoints now and then, then closes the
// store under it: whatever the interleaving, the journal does not fail and
// everything appended is there on reopen (run under -race).
func TestSyncRacesRotation(t *testing.T) {
	srv := newTestServer(t, testConfig(), 4)
	loadObjects(t, srv, 1, 50)
	dir := t.TempDir()
	st, err := Open(Config{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Bootstrap(srv); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := st.Sync(); err != nil {
				t.Errorf("Sync: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		if _, err := st.AppendBehind(migrated(i % 50)); err != nil {
			t.Fatal(err)
		}
		if i%250 == 249 {
			if _, err := st.Checkpoint(srv); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := st.LSN()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if err := st.Err(); err != nil {
		t.Fatalf("a Sync racing rotation and Close failed the journal: %v", err)
	}
	st2 := openStore(t, dir)
	defer st2.Close()
	if got := st2.LSN(); got != want {
		t.Fatalf("reopened at LSN %d, %d appended", got, want)
	}
}
