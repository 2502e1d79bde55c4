package gateway

// The one publication path (ARCHITECTURE.md, "Events and replay — the
// durability contract"): views wait until the journal is durable up to them.

import (
	"cmp"
	"math"
	"slices"
	"time"

	"scaddar/internal/cm"
)

// pub is the views of one round or command, held until the journal is
// durable up to lsn; snap is nil when not rebuilt.
type pub struct {
	lsn    uint64
	at     time.Time
	snap   *cm.LocatorSnapshot
	status *Status
	feed   []func()
}

// capture queues the views as of now, the snapshot rebuilt if snap says so;
// with nothing journalled since the newest queued entry, it joins that one.
// It also restarts the drain clock at a new placement epoch. Owner only.
func (g *Gateway) capture(snap bool) {
	if g.drain.epoch != g.srv.PlacementEpoch() {
		g.startClock() // a scaling operation began, or ended, since
	}
	p := pub{at: time.Now(), status: g.statusNow()}
	if st := g.cfg.Store; st != nil {
		p.lsn = st.LSN()
	}
	if snap {
		if sn, err := g.srv.BuildSnapshot(g.cfg.Factory); err != nil {
			g.logf("gateway: snapshot: %v", err)
		} else {
			p.snap = sn
		}
	}
	if step := g.dp.capture(); step != nil {
		p.feed = []func(){step}
	}
	if n := len(g.pubs); n > 0 && g.pubs[n-1].lsn == p.lsn {
		p.at, p.feed = g.pubs[n-1].at, append(g.pubs[n-1].feed, p.feed...)
		p.snap = cmp.Or(p.snap, g.pubs[n-1].snap)
		g.pubs = g.pubs[:n-1]
	}
	g.pubs = append(g.pubs, p)
	g.m.publishQueued.SetInt(len(g.pubs))
}

// release publishes, oldest first, every queued entry the durable frontier
// covers, and wakes the committer for the rest. Owner goroutine only.
func (g *Gateway) release() {
	durable := uint64(math.MaxUint64)
	if st := g.cfg.Store; st != nil {
		durable, _ = st.Durable()
	}
	n := 0
	for ; n < len(g.pubs) && g.pubs[n].lsn <= durable; n++ {
		p := &g.pubs[n]
		if p.snap != nil {
			g.snap.Store(p.snap)
		}
		for _, step := range p.feed {
			step()
		}
		g.status.Store(p.status)
		g.m.publishDelay.ObserveDuration(time.Since(p.at))
	}
	g.pubs = slices.Delete(g.pubs, 0, n)
	g.m.publishQueued.SetInt(len(g.pubs))
	if len(g.pubs) > 0 {
		wake(g.commit)
	}
}

// wake signals a channel of capacity one without blocking: a wake-up already
// pending covers this one.
func wake(ch chan<- struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// commitLoop is the committer: each wake-up is one group commit, and one that
// succeeds wakes the owner. It closes done when the gateway halts.
func (g *Gateway) commitLoop(done chan<- struct{}) {
	defer close(done)
	for {
		select {
		case <-g.halting.Done():
			return
		case <-g.commit:
		}
		if err := g.cfg.Store.Sync(); err != nil {
			g.logf("gateway: journal commit: %v", err)
		} else {
			wake(g.commitd)
		}
	}
}
