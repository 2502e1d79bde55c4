package gateway

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"scaddar/internal/cm"
	"scaddar/internal/dataplane"
	"scaddar/internal/placement"
)

// The contract of the round driver (gateway.go, run and nextRound): a round
// is paced by the wall clock while a stream plays, a drain or rebuild nobody
// plays across runs back to back and still serves the mailbox, and pending
// work that cannot advance goes back to the clock instead of spinning. The
// tests read the driver's own counters and interval histogram; where they
// wait, they wait on a published state, not for a time to pass.

// paceCounts reads the round driver's counters.
func paceCounts(g *Gateway) (paced, background uint64) {
	return g.m.rounds[false].Value(), g.m.rounds[true].Value()
}

// scaleUp posts a scale-up by add disks and returns the planned move count.
func scaleUp(t testing.TB, g *Gateway, add int) int {
	t.Helper()
	rec, out := doJSON(t, g.Handler(), http.MethodPost, "/v1/scale", map[string]any{"add": add})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("scale: %d %s", rec.Code, rec.Body)
	}
	return int(out["moves"].(float64))
}

// ro1ScaleUp is RO1's minimum for growing a catalogue's array from n0 disks
// by add, from the pure placement function: the blocks it puts on a new disk,
// every other block staying where it was.
func ro1ScaleUp(t testing.TB, g *Gateway, n0, add int) int {
	t.Helper()
	strat, err := placement.NewScaddar(n0, placement.NewX0Func(testFactory))
	if err != nil {
		t.Fatal(err)
	}
	objs := g.LocatorSnapshotWire().Objects
	var before []int
	for _, o := range objs {
		for i := 0; i < o.Blocks; i++ {
			before = append(before, strat.Disk(placement.BlockRef{Seed: o.Seed, Index: uint64(i)}))
		}
	}
	if err := strat.AddDisks(add); err != nil {
		t.Fatal(err)
	}
	moves, k := 0, 0
	for _, o := range objs {
		for i := 0; i < o.Blocks; i++ {
			switch d := strat.Disk(placement.BlockRef{Seed: o.Seed, Index: uint64(i)}); {
			case d >= n0:
				moves++
			case d != before[k]:
				t.Fatalf("the oracle moves block %d/%d between old disks %d and %d", o.ID, i, before[k], d)
			}
			k++
		}
	}
	return moves
}

// drainRounds reads how many rounds the server spent migrating.
func drainRounds(t testing.TB, g *Gateway) uint64 {
	t.Helper()
	h, ok := scrape(t, g.Handler()).Histogram("cm_round_moves", "", "")
	if !ok {
		t.Fatal("no cm_round_moves histogram")
	}
	return h.Count
}

// TestUnpacedDrainRunsBackToBack: with a Round of one second and nothing
// playing, a scale-up of some fifty rounds waits for the clock once — its
// first round is due a Round after the idle one before it — and runs every
// other round in the background: accept to finish in one Round and a
// fraction, not fifty, moving exactly RO1's minimum. The same scale-up under
// a playing stream takes the same rounds (give or take the slots the stream's
// own reads take from the new disks), all of them on the clock: the intervals
// the driver records add up to at least a Round each.
func TestUnpacedDrainRunsBackToBack(t *testing.T) {
	slow := func(c *cm.Config) { c.Round = 100 * time.Millisecond } // 7 blocks per disk per round
	g := newTestGateway(t, 4, 4, 520, slow, func(c *Config) { c.Round = time.Second })
	want := ro1ScaleUp(t, g, 4, 2)
	planned := scaleUp(t, g, 2)
	waitStatus(t, g, "back-to-back drain", func(st Status) bool { return !st.Reorganizing && st.Disks == 6 })
	st := g.Status()
	if planned != want || st.Server.BlocksMigrated != want {
		t.Errorf("planned %d, migrated %d, RO1 optimum %d", planned, st.Server.BlocksMigrated, want)
	}
	unpaced := drainRounds(t, g)
	paced, background := paceCounts(g)
	d := g.m.drainTime.Snapshot()
	if d.Count != 1 || d.Max >= 1.5 || paced > 2 || background != unpaced-1 || unpaced < 30 { // paced: the drain's first, and an idle one before it on a slow host
		t.Errorf("%d drain rounds in %.3f s at a 1 s Round: %d rounds on the clock, %d in the background", unpaced, d.Max, paced, background)
	}
	iv := g.m.roundInterval.Snapshot()
	if back := iv.Sum - float64(paced); back > 0.5 { // the intervals that did not wait for the clock
		t.Errorf("%d background rounds %.3f s apart in all", background, back)
	}

	const round = 4 * time.Millisecond
	g = newTestGateway(t, 4, 4, 520, slow, func(c *Config) { c.Round = round })
	if _, err := g.Exec(context.Background(), func(s *cm.Server) (any, error) {
		return s.StartStream(g.LocatorSnapshotWire().Objects[0].ID) // 520 rounds of playing
	}); err != nil {
		t.Fatal(err)
	}
	accepted := time.Now()
	if planned := scaleUp(t, g, 2); planned != want {
		t.Errorf("paced: planned %d, RO1 optimum %d", planned, want)
	}
	waitStatus(t, g, "paced drain", func(st Status) bool { return !st.Reorganizing && st.Disks == 6 })
	took := time.Since(accepted)
	st = g.Status()
	rounds := drainRounds(t, g)
	if st.ActiveStreams != 1 || st.Server.Hiccups != 0 {
		t.Fatalf("the stream did not play across the drain: %d playing, %d hiccups", st.ActiveStreams, st.Server.Hiccups)
	}
	if st.Server.BlocksMigrated != want || rounds < unpaced || rounds > unpaced+3 {
		t.Errorf("paced: migrated %d (optimum %d) in %d rounds, %d unpaced", st.Server.BlocksMigrated, want, rounds, unpaced)
	}
	_, background = paceCounts(g)
	iv = g.m.roundInterval.Snapshot()
	if background != 0 || iv.Sum < 0.999*float64(iv.Count)*round.Seconds() || took < time.Duration(rounds-1)*round {
		t.Errorf("paced: %d background rounds; %d intervals summing to %.4f s at a %v Round; %d drain rounds in %v",
			background, iv.Count, iv.Sum, round, rounds, took)
	}
}

// TestStreamAdmittedMidDrainIsPaced admits a stream between two rounds of a
// back-to-back drain. The round that serves its first block starts a full
// Round after the round before it; every round while it plays is on the
// clock and delivers a chunk to its consumer, none missed and none late; and
// once it is stopped the drain goes back to back again.
func TestStreamAdmittedMidDrainIsPaced(t *testing.T) {
	const round = 25 * time.Millisecond // LatencyBuckets has a bound at 20.8 ms
	g, ts := newStreamGatewayWith(t, 4, 4, 3000,
		func(c *cm.Config) { c.BlockBytes, c.Round = 4<<10, 30*time.Millisecond }, // 3 blocks per disk per round
		func(c *Config) { c.Round = round })
	obj := g.LocatorSnapshotWire().Objects[0]
	// driver is the round driver's account of itself at one instant.
	type driver struct {
		paced, back, intervals, short uint64
		sum                           float64
	}
	account := func() (d driver) {
		d.paced, d.back = paceCounts(g)
		iv := g.m.roundInterval.Snapshot()
		d.intervals, d.sum = iv.Count, iv.Sum
		for i, b := range iv.Bounds {
			if b < round.Seconds() {
				d.short += iv.Counts[i]
			}
		}
		return d
	}
	scaleUp(t, g, 2)
	var id int
	var at driver
	for at.back == 0 { // the drain's first round is on the clock: up to a Round away
		time.Sleep(time.Millisecond)
		if _, err := g.Exec(context.Background(), func(s *cm.Server) (any, error) {
			if _, b := paceCounts(g); b == 0 {
				return nil, nil
			}
			if !s.Reorganizing() {
				return nil, fmt.Errorf("the drain was over before a stream could be admitted: too short to test")
			}
			st, err := s.StartStream(obj.ID)
			if err != nil {
				return nil, err
			}
			id, at = st.ID, account()
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for g.m.roundInterval.Count() == at.intervals { // the round that serves block 0
		time.Sleep(100 * time.Microsecond)
	}
	first := account()
	if first.short != at.short || first.back != at.back || first.paced == at.paced {
		t.Errorf("the admitted stream's first round: %d background rounds and %d intervals under a Round since the admission (%d rounds)",
			first.back-at.back, first.short-at.short, first.intervals-at.intervals)
	}
	resp, err := http.Get(fmt.Sprintf("%s/v1/sessions/%d/stream", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	const chunks = 8
	for i, from := 0, -1; i < chunks; i++ {
		f, err := dataplane.ReadFrame(br)
		if err != nil || f.End || !dataplane.VerifySeededContent(f.Data, obj.Seed, uint64(f.Index)) || from >= 0 && f.Index != from+i {
			t.Fatalf("chunk %d: frame %+v after block %d, %v", i, f, from, err)
		}
		if from < 0 {
			from = f.Index
		}
	}
	var stopped driver
	if _, err := g.Exec(context.Background(), func(s *cm.Server) (any, error) {
		stopped = account()
		if !s.Reorganizing() {
			return nil, fmt.Errorf("the drain ended while the stream played: too short to test")
		}
		return nil, s.StopStream(id)
	}); err != nil {
		t.Fatal(err)
	}
	// No background round while it played, and the rounds' starts at least a
	// Round apart on the whole (a round the host wakes late is followed by a
	// shorter interval: the schedule does not drift).
	n, sum := stopped.intervals-at.intervals, stopped.sum-at.sum
	if stopped.back != at.back || n < chunks || sum < 0.999*float64(n)*round.Seconds() {
		t.Errorf("while the stream played: %d background rounds, %d intervals summing to %.4f s at a %v Round", stopped.back-at.back, n, sum, round)
	}
	waitStatus(t, g, "the drain to finish back to back", func(st Status) bool { return !st.Reorganizing && st.Disks == 6 })
	if _, b := paceCounts(g); b == stopped.back {
		t.Error("no background round after the stream stopped")
	}
	if st := g.Status(); st.Server.Hiccups != 0 || st.Gateway.StreamMisses != 0 || st.Gateway.StreamChunks < chunks {
		t.Errorf("%d hiccups, %d misses, %d chunks delivered", st.Server.Hiccups, st.Gateway.StreamMisses, st.Gateway.StreamChunks)
	}
}

// TestMailboxServedBetweenUnpacedRounds: a back-to-back drain polls the
// mailbox and the halt between every two rounds — at a Round of one second,
// an Exec and a Close issued mid-drain come back in a fraction of it.
func TestMailboxServedBetweenUnpacedRounds(t *testing.T) {
	g := newTestGateway(t, 4, 4, 6000, func(c *cm.Config) { c.Round = 20 * time.Millisecond }, // 1 block per disk per round
		func(c *Config) { c.Round = time.Second })
	scaleUp(t, g, 2)
	waitStatus(t, g, "the drain's first background round", func(Status) bool { _, b := paceCounts(g); return b > 0 })
	for i := 0; i < 3; i++ {
		began := time.Now()
		v, err := g.Exec(context.Background(), func(s *cm.Server) (any, error) { return s.MigrationRemaining(), nil })
		if err != nil || time.Since(began) > 250*time.Millisecond {
			t.Fatalf("Exec mid-drain: %v after %v", err, time.Since(began))
		}
		if v.(int) == 0 {
			t.Fatal("the drain was over before the mailbox was tried: too short to test")
		}
	}
	began := time.Now()
	g.Close()
	if took := time.Since(began); took > 250*time.Millisecond {
		t.Errorf("Close mid-drain took %v", took)
	}
	if st := g.Status(); st.MigrationRemaining == 0 {
		t.Error("the drain finished before Close: too short to test")
	}
	if paced, _ := paceCounts(g); paced > 2 {
		t.Errorf("%d rounds on the clock: the drain was not running back to back", paced)
	}
}

// stallGateway boots a mirrored array on a gateway that counts its log lines.
func stallGateway(t testing.TB, round time.Duration) (*Gateway, *atomic.Int64) {
	var lines atomic.Int64
	g := newTestGateway(t, 4, 4, 400, func(c *cm.Config) { c.Redundancy = cm.RedundancyMirror }, func(c *Config) {
		c.Round = round
		c.Logf = func(string, ...any) { lines.Add(1) }
	})
	return g, &lines
}

// TestStalledDrainDoesNotSpin: rebuild work that is pending but cannot
// advance — the replacement disk it targets failed in its turn, and nobody
// has repaired that — is retried once per Round, not back to back, and logs
// nothing per round; the repair brings the background rounds back and the
// rebuild through.
func TestStalledDrainDoesNotSpin(t *testing.T) {
	const round = 5 * time.Millisecond
	g, lines := stallGateway(t, round)
	if _, err := g.Exec(context.Background(), func(s *cm.Server) (any, error) {
		for _, op := range []func(int) error{s.FailDisk, s.RepairDisk, s.FailDisk} {
			if err := op(1); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if st := g.Status(); !st.Degraded || st.RebuildRemaining == 0 {
		t.Fatalf("a replacement that failed left nothing to rebuild: %+v", st)
	}
	p0, b0 := paceCounts(g)
	began := time.Now()
	waitStatus(t, g, "20 stalled rounds", func(Status) bool {
		p, b := paceCounts(g)
		if b-b0 > 2 {
			t.Fatalf("%d background rounds on a rebuild that cannot advance", b-b0)
		}
		return p-p0 >= 20
	})
	p, b := paceCounts(g)
	if held := time.Since(began); held < 19*round || (p-p0)+(b-b0) > 22 || lines.Load() > 22 {
		t.Errorf("stalled for %v: %d paced and %d background rounds, %d log lines", held, p-p0, b-b0, lines.Load())
	}
	if rec, _ := doJSON(t, g.Handler(), http.MethodPost, "/v1/disks/1/repair", nil); rec.Code != http.StatusAccepted {
		t.Fatalf("repair: %d %s", rec.Code, rec.Body)
	}
	waitStatus(t, g, "rebuild", func(st Status) bool { return !st.Degraded && st.RebuildRemaining == 0 })
	if _, after := paceCounts(g); after == b {
		t.Error("the repaired rebuild ran no background round")
	}
}

// TestUnpacedRebuild: fail and repair on an idle array at a Round of one
// second — after its first round, which is on the clock, the rebuild runs
// back to back, and leaves every block and every redundant copy where it
// belongs.
func TestUnpacedRebuild(t *testing.T) {
	g, _ := stallGateway(t, time.Second)
	for _, op := range []string{"fail", "repair"} {
		if rec, _ := doJSON(t, g.Handler(), http.MethodPost, "/v1/disks/2/"+op, nil); rec.Code != http.StatusAccepted {
			t.Fatalf("%s: %d %s", op, rec.Code, rec.Body)
		}
	}
	waitStatus(t, g, "rebuild", func(st Status) bool { return !st.Degraded && st.RebuildRemaining == 0 })
	paced, background := paceCounts(g)
	if iv := g.m.roundInterval.Snapshot(); paced > 2 || background < 3 || iv.Sum > float64(paced)+0.5 {
		t.Errorf("rebuild: %d rounds on the clock, %d in the background, %.3f s from the first to the last", paced, background, iv.Sum)
	}
	if _, err := g.Exec(context.Background(), func(s *cm.Server) (any, error) {
		if m := s.Metrics(); m.RebuildsCompleted != 1 || m.BlocksRebuilt == 0 || s.LostBlocks() != 0 {
			return nil, fmt.Errorf("%d rebuilds completed, %d blocks rebuilt, %d lost", m.RebuildsCompleted, m.BlocksRebuilt, s.LostBlocks())
		}
		return nil, s.VerifyIntegrity()
	}); err != nil {
		t.Error(err)
	}
}

// placementOf lists where a snapshot puts every block, in catalogue order;
// t.Error, not Fatal: the owner goroutine calls it too.
func placementOf(t testing.TB, sn *cm.LocatorSnapshot) []int {
	var out []int
	for _, o := range sn.Objects() {
		for i := 0; i < o.Blocks; i++ {
			d, err := sn.Locate(o.ID, i)
			if err != nil {
				t.Errorf("locate %d/%d: %v", o.ID, i, err)
			}
			out = append(out, d)
		}
	}
	return out
}
