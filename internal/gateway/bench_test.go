package gateway

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"scaddar/internal/cm"
	"scaddar/internal/store"
)

// BenchmarkGatewayRead measures the HTTP hot path end to end: mux dispatch,
// one atomic snapshot load, a catalogue probe plus the compiled chain, and
// JSON encoding. The
// parallel variant is the number that matters — the read path holds no lock,
// so it should scale with GOMAXPROCS.
func BenchmarkGatewayRead(b *testing.B) {
	g := newTestGateway(b, 8, 8, 500, nil, nil)
	h := g.Handler()
	paths := make([]string, 256)
	for i := range paths {
		paths[i] = fmt.Sprintf("/v1/objects/%d/blocks/%d", i%8, (i*37)%500)
	}

	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			req := httptest.NewRequest("GET", paths[i%len(paths)], nil)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("read = %d", rec.Code)
			}
		}
	})

	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				req := httptest.NewRequest("GET", paths[i%len(paths)], nil)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("read = %d", rec.Code)
				}
				i++
			}
		})
	})
}

// BenchmarkDrain times one awaited scale-up of a journalled gateway at a 2 ms
// Round — 128,000 blocks on 8 disks growing to 10, 25,600 moves at 132 per
// disk per round, every round's moves published once a group commit has made
// them durable: reorg_durable's operation — with a stream playing across it
// (paced: a round per Round) and with none (background: rounds back to back).
// blocks/s is over the whole awaited operation, drain-blocks/s over the
// gateway's own drain timer (gateway_reorg_drain_seconds: accept to finish).
func BenchmarkDrain(b *testing.B) {
	for _, pace := range []string{"paced", "background"} {
		b.Run(pace, func(b *testing.B) {
			b.ReportAllocs()
			moved, drained := 0, 0.0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				srv := newTestServer(b, 8, 64, 2000, func(c *cm.Config) { c.BlockBytes, c.Round = 64<<10, 1200*time.Millisecond })
				st, err := store.Open(store.Config{Dir: b.TempDir()})
				if err != nil {
					b.Fatal(err)
				}
				if err := st.Bootstrap(srv); err != nil {
					b.Fatal(err)
				}
				done := make(chan struct{}, 1) // the one line a finished drain logs
				g, err := New(srv, Config{Factory: testFactory, Round: 2 * time.Millisecond, Store: st,
					Logf: func(format string, _ ...any) {
						if strings.Contains(format, "reorganization complete") {
							done <- struct{}{}
						}
					}})
				if err != nil {
					b.Fatal(err)
				}
				if pace == "paced" {
					if _, err := g.Exec(context.Background(), func(s *cm.Server) (any, error) { return s.StartStream(0) }); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				moved += scaleUp(b, g, 2)
				select {
				case <-done:
				case <-time.After(time.Minute):
					b.Fatal("no \"reorganization complete\" line: the drain did not finish, or its log line changed")
				}
				b.StopTimer()
				drained += g.m.drainTime.Snapshot().Sum
				if p, bg := paceCounts(g); (pace == "paced") != (bg == 0) {
					b.Fatalf("%s: %d rounds on the clock, %d in the background", pace, p, bg)
				}
				g.Close()
				if err := st.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(moved)/b.Elapsed().Seconds(), "blocks/s")
			b.ReportMetric(float64(moved)/drained, "drain-blocks/s")
		})
	}
}
