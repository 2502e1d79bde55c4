package gateway

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
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
