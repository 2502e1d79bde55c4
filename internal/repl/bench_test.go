package repl

import (
	"testing"
	"time"

	"scaddar/internal/cm"
	"scaddar/internal/store"
)

// BenchmarkFollowerApply measures what the replica pays per streamed journal
// record in the middle of a drain: decode, replay one round's migrated blocks
// into a server with 25 k moves pending, rebuild and publish the locator
// snapshot. It is the follower's whole apply cost, and with the journal's
// ship-on-sync batching what bounds how far it trails an unbroken script.
func BenchmarkFollowerApply(b *testing.B) {
	cfg := testConfig()
	cfg.Round = 1200 * time.Millisecond // a round's worth of moves per record, as the ledger's reorg_durable runs
	build := func() *cm.Server {
		srv := newTestServer(b, cfg, 8)
		for i := 0; i < 64; i++ {
			if err := srv.AddObject(testObject(i, 2000)); err != nil {
				b.Fatal(err)
			}
		}
		return srv
	}
	// The leader's side of one scale-up: the start event, then one
	// migrated-blocks record per round.
	var records [][]byte
	leader := build()
	leader.SetEventSink(func(ev cm.Event) {
		data, err := store.EncodeEvent(ev)
		if err != nil {
			b.Fatal(err)
		}
		records = append(records, data)
	})
	if _, err := leader.ScaleUp(2); err != nil {
		b.Fatal(err)
	}
	for leader.Reorganizing() {
		if err := leader.Tick(); err != nil {
			b.Fatal(err)
		}
	}
	var f *Follower
	next := len(records)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if next == len(records) {
			b.StopTimer()
			f = &Follower{cfg: FollowerConfig{X0: testX0(), Factory: testFactory}, srv: build()}
			if err := f.publish(&View{}, true); err != nil {
				b.Fatal(err)
			}
			if err := f.applyRecord(1, records[0]); err != nil {
				b.Fatal(err)
			}
			next = 1
			b.StartTimer()
		}
		if err := f.applyRecord(uint64(next+1), records[next]); err != nil {
			b.Fatal(err)
		}
		next++
	}
}
