package gateway

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"scaddar/internal/cm"
	"scaddar/internal/dataplane"
	"scaddar/internal/disk"
	"scaddar/internal/frame"
	"scaddar/internal/placement"
	"scaddar/internal/store"
)

// The durability contract (ARCHITECTURE.md, "Events and replay — the
// durability contract"): a location any reader or follower can see is
// durable, and a command is durable before its reply. These tests hold the
// gateway's published views — the locator snapshot, the locator feed, the
// status — against the journal as it stands on disk, and restart gateways on
// journals cut where a crash can cut them.

// cutJournal copies a data directory as a crash would leave it with the
// journal durable up to lsn: every file, the journal segments holding only
// the records at or below lsn (a segment is a 13-byte header, then framed
// records whose payload opens with the record's LSN). torn keeps half of the
// bytes after the cut as well — of the next record, or of what was flushed
// of it — as a crash in the middle of writing it would.
func cutJournal(src, dst string, lsn uint64, torn bool) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if strings.HasPrefix(e.Name(), "wal-") && len(data) >= 13 {
			if binary.LittleEndian.Uint64(data[5:13]) > lsn {
				continue // a segment begun past the cut
			}
			n, next := 13, 0
			for {
				payload, size, err := frame.Next(data[n:], 8<<20)
				if err != nil {
					next = len(data) - n // the end, or a record not flushed yet
					break
				}
				c := frame.Cursor{Buf: payload}
				if c.Uvarint("LSN") > lsn {
					next = size
					break
				}
				n += size
			}
			if torn {
				n += next / 2
			}
			data = data[:n]
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// copyTree copies a directory tree of regular files.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
}

// journalled boots a gateway on a freshly bootstrapped store in dir, with a
// Round long enough that only a drain's first round waits for it.
func journalled(t testing.TB, srv *cm.Server, dir string, gmutate func(*Config)) (*Gateway, *store.Store) {
	t.Helper()
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := st.Bootstrap(srv); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Factory: testFactory, Round: 200 * time.Millisecond, Store: st, CheckpointEvery: 1 << 20}
	if gmutate != nil {
		gmutate(&cfg)
	}
	g, err := New(srv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g, st
}

// oneBlockRounds gives every disk a budget of one 4 KiB block a round, so a
// scale-up's drain takes as many rounds as a new disk receives blocks.
func oneBlockRounds(c *cm.Config) { c.BlockBytes, c.Round = 4<<10, 10*time.Millisecond }

// movedBlocks lists, from a snapshot taken during a scale-up from n0 disks,
// the blocks it places on the new disks — the moves it shows executed.
func movedBlocks(t testing.TB, sn *cm.LocatorSnapshot, n0 int) []cm.BlockPos {
	var out []cm.BlockPos
	for _, o := range sn.Objects() {
		for i := 0; i < o.Blocks; i++ {
			if d, err := sn.Locate(o.ID, i); err != nil {
				t.Errorf("locate %d/%d: %v", o.ID, i, err)
			} else if d >= n0 {
				out = append(out, cm.BlockPos{Object: o.ID, Index: uint64(i)})
			}
		}
	}
	return out
}

// TestPublishedMovesAreDurable reads the gateway's published views over and
// over through a back-to-back drain, and after each read the journal's
// durable records through a tail reader: no move a feed delta, the snapshot
// or the status shows may be missing from them.
func TestPublishedMovesAreDurable(t *testing.T) {
	srv := newTestServer(t, 4, 4, 3000, oneBlockRounds)
	g, st := journalled(t, srv, t.TempDir(), nil)
	tail := st.NewTailReader(st.LSN() + 1)
	defer tail.Close()
	durable := map[cm.BlockPos]bool{}
	readDurable := func() {
		for {
			recs, err := tail.Next(0)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) == 0 {
				return
			}
			for _, r := range recs {
				ev, err := store.DecodeEvent(r.Event)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range ev.Moves {
					durable[m] = true
				}
			}
		}
	}
	from := g.Feed().Pos()
	want := ro1ScaleUp(t, g, 4, 2)
	scaleUp(t, g, 2)
	checks, midDrain, fed, behind := 0, 0, 0, 0
	for done := false; !done; checks++ {
		time.Sleep(100 * time.Microsecond) // the committer shares the cores
		deltas, seq, err := g.Feed().Since(from)
		if errors.Is(err, dataplane.ErrDeltaGone) {
			deltas, err = nil, nil // a whole ring behind: carry on from the newest
			behind++
		}
		if err != nil {
			t.Fatal(err)
		}
		from.Seq = seq
		moved := movedBlocks(t, g.Snapshot(), 4)
		status := g.Status()
		done = !status.Reorganizing && status.Disks == 6
		readDurable()
		for _, d := range deltas {
			for _, m := range d.Moves {
				if !durable[cm.BlockPos{Object: m.Object, Index: uint64(m.Index)}] {
					t.Fatalf("check %d: the feed published the move of block %d/%d before the journal made it durable", checks, m.Object, m.Index)
				}
				fed++
			}
		}
		for _, m := range moved {
			if !durable[m] {
				t.Fatalf("check %d: the snapshot places block %d/%d on a new disk the journal has not durably moved it to", checks, m.Object, m.Index)
			}
		}
		if status.Server.BlocksMigrated > len(durable) {
			t.Fatalf("check %d: the status counts %d blocks migrated, the journal holds %d", checks, status.Server.BlocksMigrated, len(durable))
		}
		if len(moved) > 0 && status.Reorganizing {
			midDrain++
		}
	}
	if len(durable) != want || midDrain < 3 || fed == 0 {
		t.Fatalf("%d blocks durably moved (RO1 optimum %d); %d of %d checks caught the drain in the middle; %d fed moves checked", len(durable), want, midDrain, checks, fed)
	}
	t.Logf("%d checks, %d mid-drain; %d fed moves checked, %d times a ring behind", checks, midDrain, fed, behind)
}

// TestDrainCommitsBehind: a back-to-back drain's rounds do not each wait on
// an fsync — the committer's group commits cover several rounds' records,
// the gateway says how long views waited for them, and the finish line
// counts the drain's fsyncs.
func TestDrainCommitsBehind(t *testing.T) {
	var mu sync.Mutex
	var finish string
	srv := newTestServer(t, 4, 4, 300, func(c *cm.Config) { c.BlockBytes, c.Round = 4<<10, 30*time.Millisecond })
	g, _ := journalled(t, srv, t.TempDir(), func(c *Config) {
		c.Logf = func(format string, args ...any) {
			if line := fmt.Sprintf(format, args...); strings.Contains(line, "reorganization complete") {
				mu.Lock()
				finish = line
				mu.Unlock()
			}
		}
	})
	before := scrape(t, g.Handler())
	scaleUp(t, g, 2)
	waitStatus(t, g, "back-to-back drain", func(st Status) bool { return !st.Reorganizing && st.Disks == 6 })
	m := scrape(t, g.Handler())
	counter := func(name string) float64 {
		v, _ := m.Value(name)
		w, _ := before.Value(name)
		return v - w
	}
	batch, _ := m.Histogram("store_fsync_batch_records", "", "")
	delay, _ := m.Histogram("gateway_publish_delay_seconds", "", "")
	queued, _ := m.Value("gateway_publish_queued")
	if appends, fsyncs := counter("store_appends_total"), counter("store_fsyncs_total"); batch.Sum <= float64(batch.Count) || fsyncs >= appends {
		t.Errorf("%v records in %v fsyncs; %v records in the %d group commits observed", appends, fsyncs, batch.Sum, batch.Count)
	}
	if delay.Count == 0 || queued != 0 {
		t.Errorf("%d views published after a wait, %v still queued", delay.Count, queued)
	}
	mu.Lock()
	defer mu.Unlock()
	if !strings.Contains(finish, " fsyncs, ") {
		t.Errorf("finish line %q does not count the drain's fsyncs", finish)
	}
}

// TestCrashMidUnpacedDrain copies a journalled gateway's data directory at
// random instants of a back-to-back drain, each copy cut at the durable
// frontier as it stood just after the published views were read: what a
// crash at that instant leaves. Every copy recovers every move those views
// published, and, once both drain, the live placement. With payload stores
// the stores are copied later than the frontier was read, so they hold moves
// the journal copy lost — source copies already deleted — and AttachPayloads
// must put every block's bytes where the recovered metadata says.
func TestCrashMidUnpacedDrain(t *testing.T) {
	for _, payloads := range []bool{false, true} {
		t.Run(map[bool]string{false: "journal", true: "payloads"}[payloads], func(t *testing.T) {
			srv := newTestServer(t, 4, 4, map[bool]int{false: 4000, true: 2000}[payloads], func(c *cm.Config) {
				oneBlockRounds(c)
				c.BlockBytes = 1 << 10
			})
			pdir := t.TempDir()
			if payloads {
				mgr, err := dataplane.NewManager(pdir, dataplane.Options{})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { mgr.Close() })
				if err := srv.AttachPayloads(mgr.Factory(), dataplane.SeededContent); err != nil {
					t.Fatal(err)
				}
			}
			dir := t.TempDir()
			g, st := journalled(t, srv, dir, nil)
			seeds := map[int]uint64{}
			for _, o := range g.LocatorSnapshotWire().Objects {
				seeds[o.ID] = o.Seed
			}
			type kill struct {
				dir, torn, pdir string
				lsn             uint64
				published       *cm.LocatorSnapshot
			}
			var kills []kill
			scaleUp(t, g, 2)
			waitStatus(t, g, "the drain's first background round", func(Status) bool { _, b := paceCounts(g); return b > 0 })
			// A kill reads the published views, then the durable frontier; a
			// moment later, between two rounds, the owner holds still while
			// the journal is copied cut there and the stores as they are.
			rng := rand.New(rand.NewSource(1))
			for mid := true; mid && len(kills) < 6; {
				k := kill{dir: t.TempDir(), torn: t.TempDir(), pdir: t.TempDir(), published: g.Snapshot()}
				k.lsn, _ = st.Durable()
				time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
				if _, err := g.Exec(context.Background(), func(s *cm.Server) (any, error) {
					if mid = s.Reorganizing(); !mid {
						return nil, nil
					}
					if err := cutJournal(dir, k.dir, k.lsn, false); err != nil {
						return nil, err
					}
					if err := cutJournal(dir, k.torn, k.lsn, true); err != nil || !payloads {
						return nil, err
					}
					return nil, copyTree(pdir, k.pdir)
				}); err != nil {
					t.Fatal(err)
				}
				if mid {
					kills = append(kills, k)
				}
			}
			waitStatus(t, g, "back-to-back drain", func(st Status) bool { return !st.Reorganizing && st.Disks == 6 })
			final := placementOf(t, g.Snapshot())
			if len(kills) < 3 {
				t.Fatalf("%d kill instants inside the drain: too short to test", len(kills))
			}
			reconciled := 0
			for i, k := range kills {
				st2, err := store.Open(store.Config{Dir: k.dir})
				if err != nil {
					t.Fatal(err)
				}
				srv2, info, err := st2.Recover(placement.NewX0Func(testFactory))
				if err != nil || info.LSN != k.lsn {
					t.Fatalf("kill %d: recovered to LSN %d of %d: %v", i, info.LSN, k.lsn, err)
				}
				sn, err := srv2.BuildSnapshot(testFactory)
				if err != nil {
					t.Fatal(err)
				}
				got := placementOf(t, sn)
				for b, d := range placementOf(t, k.published) {
					if d >= 4 && got[b] != d {
						t.Fatalf("kill %d (LSN %d): block %d was published on disk %d and recovered on %d", i, k.lsn, b, d, got[b])
					}
				}
				// The same instant with the next record half written.
				stT, err := store.Open(store.Config{Dir: k.torn})
				if err != nil {
					t.Fatal(err)
				}
				srvT, infoT, err := stT.Recover(placement.NewX0Func(testFactory))
				if err != nil || infoT.LSN != k.lsn {
					t.Fatalf("kill %d, torn tail: recovered to LSN %d of %d: %v", i, infoT.LSN, k.lsn, err)
				}
				if snT, err := srvT.BuildSnapshot(testFactory); err != nil || !slices.Equal(placementOf(t, snT), got) {
					t.Fatalf("kill %d, torn tail: the placement differs from the clean cut's (%v)", i, err)
				}
				stT.Close()
				if payloads {
					reconciled += attachCopy(t, srv2, k.pdir, seeds)
				}
				for srv2.Reorganizing() {
					if err := srv2.Tick(); err != nil {
						t.Fatal(err)
					}
				}
				if err := srv2.FinishReorganization(); err != nil {
					t.Fatal(err)
				}
				if sn, err = srv2.BuildSnapshot(testFactory); err != nil {
					t.Fatal(err)
				}
				for b, d := range placementOf(t, sn) {
					if d != final[b] {
						t.Fatalf("kill %d (LSN %d): block %d drained to disk %d, live to %d", i, k.lsn, b, d, final[b])
					}
				}
				if err := srv2.VerifyIntegrity(); err != nil {
					t.Fatalf("kill %d: %v", i, err)
				}
				st2.Close()
			}
			if payloads && reconciled == 0 {
				t.Fatal("no copy of the stores held a move its journal copy lost: too short to test")
			}
			t.Logf("%d kill instants in a drain of %.3f s; %d payloads reconciled", len(kills), g.m.drainTime.Snapshot().Max, reconciled)
		})
	}
}

// attachCopy attaches the payload stores copied to pdir under a recovered
// server and checks that every disk then holds exactly the payloads its
// inventory names, each with its seeded bytes. It returns how many payloads
// disagreed with the inventory before AttachPayloads reconciled them.
func attachCopy(t testing.TB, srv *cm.Server, pdir string, seeds map[int]uint64) (disagreed int) {
	t.Helper()
	mgr, err := dataplane.NewManager(pdir, dataplane.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	inventory := func(d *disk.Disk) map[disk.BlockID]bool {
		out := map[disk.BlockID]bool{}
		for _, b := range d.Blocks() {
			out[b] = true
		}
		return out
	}
	for i := 0; i < srv.N(); i++ {
		d, _ := srv.Array().Disk(i)
		ps, err := mgr.Open(d.ID())
		if err != nil {
			t.Fatal(err)
		}
		have, want := ps.Blocks(), inventory(d)
		orphans := 0
		for _, b := range have {
			if !want[b] {
				orphans++
			}
		}
		disagreed += orphans + len(want) - (len(have) - orphans) // orphans, then missing
	}
	if err := srv.AttachPayloads(mgr.Factory(), dataplane.SeededContent); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < srv.N(); i++ {
		d, _ := srv.Array().Disk(i)
		want := inventory(d)
		ps := d.Payload()
		have := ps.Blocks()
		reqs := make([]disk.BlockRead, len(have))
		for j, b := range have {
			if !want[b] {
				t.Fatalf("disk %d keeps a payload for block %#x it does not hold", d.ID(), b)
			}
			reqs[j].Block = b
		}
		if len(have) != len(want) {
			t.Fatalf("disk %d holds %d blocks and %d payloads", d.ID(), len(want), len(have))
		}
		ps.ReadBlocks(reqs)
		for _, r := range reqs {
			object, index := int(uint64(r.Block)>>40), uint64(r.Block)&(1<<40-1)
			if r.Err != nil || !dataplane.VerifySeededContent(r.Payload.Data, seeds[object], index) {
				t.Fatalf("disk %d block %d/%d: %v", d.ID(), object, index, r.Err)
			}
			r.Payload.Release()
		}
	}
	return disagreed
}

// TestRecoveredMidDrainFinishes restarts a gateway on a journal cut at every
// record of a scale-up's drain and of a scale-down's: the recovered gateway
// drains what is left back to back, logs the finish, checkpoints after it,
// and takes the next scaling operation.
func TestRecoveredMidDrainFinishes(t *testing.T) {
	for _, op := range []struct {
		name  string
		n0    int
		start func(*cm.Server) error
	}{
		{"scale-up", 4, func(s *cm.Server) error { _, err := s.ScaleUp(2); return err }},
		{"scale-down", 6, func(s *cm.Server) error { _, err := s.ScaleDown(1, 4); return err }},
	} {
		t.Run(op.name, func(t *testing.T) {
			// The journal of one drain, run by hand: 7 blocks per disk per round.
			dir := t.TempDir()
			srv := newTestServer(t, op.n0, 4, 60, func(c *cm.Config) { c.Round = 100 * time.Millisecond })
			st, err := store.Open(store.Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Bootstrap(srv); err != nil {
				t.Fatal(err)
			}
			if err := op.start(srv); err != nil {
				t.Fatal(err)
			}
			first := st.LSN()
			for srv.Reorganizing() {
				if err := srv.Tick(); err != nil {
					t.Fatal(err)
				}
			}
			last := st.LSN()
			st.Close()
			if last-first < 4 {
				t.Fatalf("a drain of %d rounds: too short to test", last-first)
			}
			for lsn := first; lsn <= last; lsn++ {
				restartMidDrain(t, dir, lsn)
			}
		})
	}
}

// restartMidDrain recovers a copy of dir cut at lsn under a gateway and holds
// it to TestRecoveredMidDrainFinishes's four checks.
func restartMidDrain(t *testing.T, dir string, lsn uint64) {
	t.Helper()
	clone := t.TempDir()
	if err := cutJournal(dir, clone, lsn, false); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Config{Dir: clone})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, _, err := st.Recover(placement.NewX0Func(testFactory))
	if err != nil {
		t.Fatal(err)
	}
	lines := make(chan string, 64)
	const round = 100 * time.Millisecond
	g, err := New(srv, Config{Factory: testFactory, Round: round, Store: st, CheckpointEvery: 1,
		Logf: func(format string, args ...any) {
			select {
			case lines <- fmt.Sprintf(format, args...):
			default:
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	began := time.Now()
	var finished bool
	for wait := time.After(30 * time.Second); ; {
		select {
		case line := <-lines:
			finished = finished || strings.Contains(line, "reorganization complete")
			if strings.Contains(line, "checkpoint at LSN") {
				if !finished {
					t.Fatalf("LSN %d: checkpoint before the drain finished: %s", lsn, line)
				}
			} else if !strings.Contains(line, "reorganization complete") {
				t.Fatalf("LSN %d: %s", lsn, line)
			}
		case <-wait:
			t.Fatalf("LSN %d: no finish line and checkpoint after 30 s; status %+v", lsn, g.Status())
		}
		if finished && g.Status().Journal.CheckpointLSN > 0 {
			break
		}
	}
	paced, _ := paceCounts(g)
	if took := g.m.drainTime.Snapshot(); took.Count != 1 || took.Max > 2*round.Seconds() || paced > 2 {
		t.Errorf("LSN %d: drain finished %d times, in %.3f s, %d rounds on a %v clock: not back to back", lsn, took.Count, took.Max, paced, round)
	}
	if elapsed := time.Since(began); elapsed > 20*round {
		t.Errorf("LSN %d: %v from start to checkpoint", lsn, elapsed)
	}
	rec, _ := doJSON(t, g.Handler(), http.MethodPost, "/v1/scale", map[string]any{"add": 1})
	if rec.Code != http.StatusAccepted {
		b, _ := io.ReadAll(rec.Body)
		t.Fatalf("LSN %d: the next scale-up: %d %s", lsn, rec.Code, b)
	}
}
