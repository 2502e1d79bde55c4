package bufpool

import (
	"sync"
	"testing"
)

func TestClassFor(t *testing.T) {
	cases := []struct {
		n, class int
	}{
		{0, 0}, {1, 0}, {512, 0}, {513, 1}, {1024, 1}, {4096, 3},
		{4097, 4}, {1 << 20, 11}, {1 << 24, 15}, {1<<24 + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.class {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}

func TestGetReleaseRoundTrip(t *testing.T) {
	base := InUse()
	b := Get(4096)
	if len(b.Data()) != 4096 {
		t.Fatalf("Data len = %d, want 4096", len(b.Data()))
	}
	if cap(b.data) != 4096 {
		t.Fatalf("backing cap = %d, want 4096", cap(b.data))
	}
	if InUse() != base+1 {
		t.Fatalf("InUse = %d, want %d", InUse(), base+1)
	}
	b.Release()
	if InUse() != base {
		t.Fatalf("InUse after release = %d, want %d", InUse(), base)
	}
}

func TestRetainRelease(t *testing.T) {
	base := InUse()
	b := Get(100)
	b.Retain()
	b.Retain()
	b.Release()
	b.Release()
	if InUse() != base+1 {
		t.Fatalf("buffer returned to pool while still referenced")
	}
	b.Release()
	if InUse() != base {
		t.Fatalf("InUse = %d, want %d after final release", InUse(), base)
	}
}

func TestOverReleasePanics(t *testing.T) {
	b := Get(64)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	b.Release()
}

func TestRetainAfterFreePanics(t *testing.T) {
	b := Get(64)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("Retain on released buffer did not panic")
		}
	}()
	b.Retain()
}

func TestOversizedRequestUnpooled(t *testing.T) {
	base := InUse()
	b := Get(1<<24 + 1)
	if b.class != -1 {
		t.Fatalf("oversized buffer got class %d, want -1", b.class)
	}
	if len(b.Data()) != 1<<24+1 {
		t.Fatalf("Data len = %d", len(b.Data()))
	}
	b.Release()
	if InUse() != base {
		t.Fatalf("InUse = %d, want %d", InUse(), base)
	}
}

// TestInUseBytes pins the bytes gauge: a buffer enters at its backing
// capacity (its size class, or its exact size off-pool), not its viewed
// length, and once, whatever its reference count.
func TestInUseBytes(t *testing.T) {
	n0, b0 := InUse(), InUseBytes()
	held := []*Buf{Get(100), Get(64<<10 + 20), Get(1<<24 + 1)}
	held[1].Retain()
	if n, b := InUse()-n0, InUseBytes()-b0; n != 3 || b != 512+(128<<10)+(1<<24+1) {
		t.Fatalf("3 buffers held: gauges moved by %d buffers, %d bytes", n, b)
	}
	held[1].Release()
	for _, b := range held {
		b.Release()
	}
	if InUse() != n0 || InUseBytes() != b0 {
		t.Fatalf("after release: %d buffers, %d bytes in use, want %d, %d", InUse(), InUseBytes(), n0, b0)
	}
}

func TestUnpooledPayloadReleaseNoop(t *testing.T) {
	p := Unpooled([]byte("hello"))
	p.Retain()
	p.Release()
	p.Release() // no-op, must not panic
	if string(p.Data) != "hello" {
		t.Fatalf("unpooled data clobbered: %q", p.Data)
	}
}

func TestPayloadOwnershipTransfer(t *testing.T) {
	base := InUse()
	b := Get(128)
	p := Payload{Data: b.Data(), Buf: b}
	p.Retain()
	p.Release()
	p.Release()
	if InUse() != base {
		t.Fatalf("InUse = %d, want %d", InUse(), base)
	}
}

// TestGetReleaseZeroAlloc guards the pool's steady state: after warm-up,
// a Get/Release cycle must not allocate. This is the foundation of the
// pipeline-wide 0 allocs/chunk budget.
func TestGetReleaseZeroAlloc(t *testing.T) {
	// Warm the class so the pool holds a buffer.
	Get(4096).Release()
	allocs := testing.AllocsPerRun(1000, func() {
		b := Get(4096)
		b.Retain()
		b.Release()
		b.Release()
	})
	if allocs != 0 {
		t.Fatalf("Get/Retain/Release allocated %.1f times per run, want 0", allocs)
	}
}

func TestConcurrentRetainRelease(t *testing.T) {
	base := InUse()
	b := Get(1024)
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		b.Retain()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				b.Retain()
				b.Release()
			}
			b.Release()
		}()
	}
	wg.Wait()
	b.Release()
	if InUse() != base {
		t.Fatalf("InUse = %d, want %d", InUse(), base)
	}
}

// BenchmarkGetRelease is the pool's steady-state cycle at the streaming
// block size: what every pooled read pays on top of its I/O, gauges
// included.
func BenchmarkGetRelease(b *testing.B) {
	Get(64 << 10).Release()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Get(64 << 10).Release()
	}
}
