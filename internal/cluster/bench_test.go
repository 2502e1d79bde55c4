package cluster

import (
	"fmt"
	"net/http"
	"testing"
)

// BenchmarkClusterRoute measures the pure routing decision: SplitMix64
// whitening plus the jump-hash loop. This is the arithmetic the router
// adds to every request before any network hop.
func BenchmarkClusterRoute(b *testing.B) {
	for _, buckets := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("shards=%d", buckets), func(b *testing.B) {
			b.ReportAllocs()
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += RouteSlot(i, buckets)
			}
			if sink < 0 {
				b.Fatal("impossible")
			}
		})
	}
}

// BenchmarkClusterGatewayRead measures the full routed read path: router
// handler → owner resolution → the lookup in the router's view of the shard →
// the reply. Compare against the gateway package's BenchmarkGatewayRead to see
// the router's added cost. The views are warm before the clock starts — every
// object loaded, delivered and read once — so no iteration dials a shard or
// takes the hop, and allocs/op does not depend on the iteration count.
func BenchmarkClusterGatewayRead(b *testing.B) {
	c := newTestCluster(b, 3, nil)
	const n = 32
	c.seedObjects(b, n, 8)
	c.settle(b)
	h := c.router.Handler()
	paths := make([]string, n)
	for id := 0; id < n; id++ {
		paths[id] = fmt.Sprintf("/v1/objects/%d/blocks/0", id)
		c.readVia(b, id, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := rawReq(h, http.MethodGet, paths[i%n])
		if rec.Code != http.StatusOK {
			b.Fatalf("read: status %d: %s", rec.Code, rec.Body)
		}
	}
}
