package gateway

import (
	"testing"

	"scaddar/internal/binproto"
	"scaddar/internal/cm"
)

// BenchmarkBinGatewayRead measures the binary lookup path end to end over
// real loopback TCP, against the same 8-disk/8-object/500-block fixture as
// BenchmarkGatewayRead. In the batch variants one benchmark iteration is
// ONE LOOKUP (batches of 64 are issued every 64 iterations), so ns/op and
// allocs/op compare directly against the HTTP benchmark's per-read numbers
// — that is the ≥10×-throughput, ≤2-allocs acceptance gate for this
// protocol, recorded in the committed BENCH_<n>.json.
func BenchmarkBinGatewayRead(b *testing.B) {
	const batch = 64
	_, addr := newBinGateway(b, 8, 8, 500, nil, nil)
	dial := func(b *testing.B) *binproto.Client {
		b.Helper()
		c, err := binproto.Dial(addr, binproto.ClientConfig{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { c.Close() })
		return c
	}
	fill := func(addrs []cm.BlockAddr, base int) {
		for i := range addrs {
			n := base + i
			addrs[i] = cm.BlockAddr{Object: n % 8, Index: (n * 37) % 500}
		}
	}

	b.Run("single", func(b *testing.B) {
		c := dial(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := c.Locate(i%8, (i*37)%500); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("batch64", func(b *testing.B) {
		c := dial(b)
		addrs := make([]cm.BlockAddr, batch)
		out := make([]binproto.Result, batch)
		b.ReportAllocs()
		for i := 0; i < b.N; i += batch {
			fill(addrs, i)
			if _, err := c.LocateBatch(addrs, out); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("batch64-parallel", func(b *testing.B) {
		pool, err := binproto.DialPool(addr, 8, binproto.ClientConfig{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(pool.Close)
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			c := pool.Get()
			addrs := make([]cm.BlockAddr, batch)
			out := make([]binproto.Result, batch)
			i := 0
			for pb.Next() {
				if i%batch == 0 {
					fill(addrs, i)
					if _, err := c.LocateBatch(addrs, out); err != nil {
						b.Fatal(err)
					}
				}
				i++
			}
		})
	})
}
