package binproto

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scaddar/internal/cm"
	"scaddar/internal/frame"
	"scaddar/internal/placement"
	"scaddar/internal/prng"
	"scaddar/internal/workload"
)

func testFactory(seed uint64) prng.Source { return prng.NewSplitMix64(seed) }

// testBackend is a cm.Server plus the published snapshot a test binproto
// server reads from, with a helper to re-snapshot after mutations.
type testBackend struct {
	srv  *cm.Server
	snap atomic.Pointer[cm.LocatorSnapshot]
}

func newTestBackend(t testing.TB, n0, objects, blocks int) *testBackend {
	t.Helper()
	strat, err := placement.NewScaddar(n0, placement.NewX0Func(testFactory))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := cm.NewServer(cm.DefaultConfig(), strat)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := workload.Library(workload.LibraryConfig{
		Objects: objects, MinBlocks: blocks, MaxBlocks: blocks,
		BlockBytes: cm.DefaultConfig().BlockBytes, BitrateBitsPerSec: 4 << 20, SeedBase: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range lib {
		if err := srv.AddObject(obj); err != nil {
			t.Fatal(err)
		}
	}
	b := &testBackend{srv: srv}
	b.publish(t)
	return b
}

func (b *testBackend) publish(t testing.TB) {
	t.Helper()
	sn, err := b.srv.BuildSnapshot(testFactory)
	if err != nil {
		t.Fatal(err)
	}
	b.snap.Store(sn)
}

// startServer runs a binproto server for the backend on a loopback
// listener, returning its address.
func startServer(t testing.TB, b *testBackend, mutate func(*Server)) string {
	t.Helper()
	s, err := NewServer(ServerConfig{Snapshot: b.snap.Load})
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(s)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(s.Close)
	return ln.Addr().String()
}

func dialTest(t testing.TB, addr string) *Client {
	t.Helper()
	c, err := Dial(addr, ClientConfig{RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestLocateMatchesSnapshot(t *testing.T) {
	b := newTestBackend(t, 6, 4, 100)
	c := dialTest(t, startServer(t, b, nil))
	sn := b.snap.Load()
	for o := 0; o < 4; o++ {
		for i := 0; i < 100; i += 7 {
			want, err := sn.Locate(o, i)
			if err != nil {
				t.Fatal(err)
			}
			got, epoch, healthy, err := c.Locate(o, i)
			if err != nil {
				t.Fatalf("Locate(%d,%d): %v", o, i, err)
			}
			if got != want {
				t.Fatalf("Locate(%d,%d): disk %d, snapshot says %d", o, i, got, want)
			}
			if epoch != sn.Epoch() {
				t.Fatalf("Locate(%d,%d): epoch %d, want %d", o, i, epoch, sn.Epoch())
			}
			if !healthy {
				t.Fatalf("Locate(%d,%d): reported unhealthy on a healthy array", o, i)
			}
		}
	}
}

func TestLocateBatchMatchesSnapshot(t *testing.T) {
	b := newTestBackend(t, 6, 4, 100)
	c := dialTest(t, startServer(t, b, nil))
	sn := b.snap.Load()
	var addrs []cm.BlockAddr
	for o := 0; o < 4; o++ {
		for i := 0; i < 100; i++ {
			addrs = append(addrs, cm.BlockAddr{Object: o, Index: i})
		}
	}
	out := make([]Result, len(addrs))
	epoch, err := c.LocateBatch(addrs, out)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != sn.Epoch() {
		t.Fatalf("batch epoch %d, want %d", epoch, sn.Epoch())
	}
	for k, a := range addrs {
		want, err := sn.Locate(a.Object, a.Index)
		if err != nil {
			t.Fatal(err)
		}
		if out[k].Code != 0 || out[k].Disk != want {
			t.Fatalf("entry %d (%d/%d): got %+v, want disk %d", k, a.Object, a.Index, out[k], want)
		}
	}
}

func TestTypedErrorsRoundTrip(t *testing.T) {
	b := newTestBackend(t, 4, 2, 50)
	c := dialTest(t, startServer(t, b, nil))
	if _, _, _, err := c.Locate(99, 0); !errors.Is(err, cm.ErrUnknownObject) {
		t.Fatalf("unknown object: got %v, want cm.ErrUnknownObject", err)
	}
	if _, _, _, err := c.Locate(0, 50); !errors.Is(err, cm.ErrBlockOutOfRange) {
		t.Fatalf("out of range: got %v, want cm.ErrBlockOutOfRange", err)
	}
	// The connection must survive typed errors.
	if _, _, _, err := c.Locate(0, 0); err != nil {
		t.Fatalf("lookup after errors: %v", err)
	}
	// Batch variant: per-entry codes, no request failure.
	out := make([]Result, 3)
	if _, err := c.LocateBatch([]cm.BlockAddr{{Object: 99}, {Object: 0, Index: 50}, {Object: 0, Index: 0}}, out); err != nil {
		t.Fatal(err)
	}
	if out[0].Code != ErrCodeUnknownObject || !errors.Is(out[0].Err(), cm.ErrUnknownObject) {
		t.Fatalf("entry 0: %+v", out[0])
	}
	if out[1].Code != ErrCodeOutOfRange || !errors.Is(out[1].Err(), cm.ErrBlockOutOfRange) {
		t.Fatalf("entry 1: %+v", out[1])
	}
	if out[2].Code != 0 || out[2].Err() != nil {
		t.Fatalf("entry 2: %+v", out[2])
	}
}

func TestEpochPingDrain(t *testing.T) {
	b := newTestBackend(t, 6, 3, 40)
	c := dialTest(t, startServer(t, b, nil))
	info, err := c.Epoch()
	if err != nil {
		t.Fatal(err)
	}
	if info.Disks != 6 || info.Objects != 3 || info.Epoch != 0 || info.Reorganizing {
		t.Fatalf("epoch info: %+v", info)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	// The server closes after acknowledging drain: the next request fails.
	if err := c.Ping(); err == nil {
		t.Fatal("ping after drain succeeded, want connection error")
	}
}

func TestEpochEchoTracksReorganization(t *testing.T) {
	b := newTestBackend(t, 4, 2, 60)
	c := dialTest(t, startServer(t, b, nil))
	addrs := []cm.BlockAddr{{Object: 0, Index: 1}}
	out := make([]Result, 1)
	e0, err := c.LocateBatch(addrs, out)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.srv.ScaleUp(2); err != nil {
		t.Fatal(err)
	}
	b.publish(t)
	e1, err := c.LocateBatch(addrs, out)
	if err != nil {
		t.Fatal(err)
	}
	if e1 == e0 {
		t.Fatalf("epoch did not change across scale-up: %d", e1)
	}
	info, err := c.Epoch()
	if err != nil {
		t.Fatal(err)
	}
	if !info.Reorganizing {
		t.Fatal("epoch info does not report the in-flight reorganization")
	}
}

func TestDrainingRefusesLookups(t *testing.T) {
	b := newTestBackend(t, 4, 2, 50)
	var draining atomic.Bool
	addr := startServer(t, b, func(s *Server) { s.cfg.Draining = draining.Load })
	c := dialTest(t, addr)
	if _, _, _, err := c.Locate(0, 0); err != nil {
		t.Fatal(err)
	}
	draining.Store(true)
	if _, _, _, err := c.Locate(0, 0); !errors.Is(err, ErrDraining) {
		t.Fatalf("got %v, want ErrDraining", err)
	}
	if _, err := c.LocateBatch([]cm.BlockAddr{{}}, make([]Result, 1)); !errors.Is(err, ErrDraining) {
		t.Fatalf("batch: got %v, want ErrDraining", err)
	}
	// Ping still answers so orchestration can watch the drain.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping while draining: %v", err)
	}
}

func TestBatchTooLarge(t *testing.T) {
	b := newTestBackend(t, 4, 2, 50)
	addr := startServer(t, b, func(s *Server) { s.maxBatch = 4 })
	c := dialTest(t, addr)
	addrs := make([]cm.BlockAddr, 5)
	if _, err := c.LocateBatch(addrs, make([]Result, 5)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
	// Connection survives.
	if _, err := c.LocateBatch(addrs[:4], make([]Result, 4)); err != nil {
		t.Fatalf("batch at limit after rejection: %v", err)
	}
}

func TestConcurrentPipelinedClients(t *testing.T) {
	b := newTestBackend(t, 8, 4, 200)
	c := dialTest(t, startServer(t, b, nil))
	sn := b.snap.Load()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			addrs := make([]cm.BlockAddr, 16)
			out := make([]Result, 16)
			for iter := 0; iter < 50; iter++ {
				for i := range addrs {
					addrs[i] = cm.BlockAddr{Object: (g + i) % 4, Index: (g*31 + i*7 + iter) % 200}
				}
				if _, err := c.LocateBatch(addrs, out); err != nil {
					errs <- err
					return
				}
				for i, a := range addrs {
					want, _ := sn.Locate(a.Object, a.Index)
					if out[i].Disk != want {
						errs <- errors.New("pipelined response mismatched its request")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

func TestVersionNegotiationRejectsUnknown(t *testing.T) {
	b := newTestBackend(t, 4, 1, 10)
	addr := startServer(t, b, nil)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := writeHandshake(nc, 99); err != nil {
		t.Fatal(err)
	}
	ver, err := readHandshake(nc)
	if err != nil {
		t.Fatal(err)
	}
	if ver != Version {
		t.Fatalf("server offered version %d, want %d", ver, Version)
	}
	// Server hangs up after offering its version.
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	var one [1]byte
	if _, err := nc.Read(one[:]); err == nil {
		t.Fatal("connection stayed open after version mismatch")
	}
}

// noDeadlineConn is the part of a connection handleFrame touches: the write
// deadline it arms before buffering a reply.
type noDeadlineConn struct{ net.Conn }

func (noDeadlineConn) SetWriteDeadline(time.Time) error { return nil }

// TestServerFramesZeroAlloc is the handler-side allocation guard: once a
// connection's scratch has grown, answering an Epoch frame — which used to
// build and sort the whole object list to count it — and a LocateBatch frame
// allocates nothing.
func TestServerFramesZeroAlloc(t *testing.T) {
	b := newTestBackend(t, 6, 64, 50)
	s, err := NewServer(ServerConfig{Snapshot: b.snap.Load})
	if err != nil {
		t.Fatal(err)
	}
	c := &srvConn{nc: noDeadlineConn{}, bw: bufio.NewWriter(io.Discard)}

	epoch := appendHeader(nil, OpEpoch, 7)
	batch := le.AppendUint32(appendHeader(nil, OpLocateBatch, 8), 256)
	for i := 0; i < 256; i++ {
		batch = le.AppendUint32(le.AppendUint32(batch, uint32(i%64)), uint32(i%50))
	}
	for name, req := range map[string][]byte{"Epoch": epoch, "LocateBatch": batch} {
		if n := testing.AllocsPerRun(100, func() {
			if _, err := s.handleFrame(c, req); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s frame: handler allocates %.1f/op", name, n)
		}
	}
	if got, want := s.m.lookups.Value(), uint64(256*101); got != want {
		t.Errorf("handler counted %d lookups, want %d", got, want)
	}
	if s.m.errorFrames.Value() != 0 || s.m.lookupErrors.Value() != 0 {
		t.Errorf("handler counted %d error frames and %d lookup errors on well-formed requests",
			s.m.errorFrames.Value(), s.m.lookupErrors.Value())
	}
}

// TestSyncConn drives the synchronous client against a server that was
// handed the connection (ServeConn): answers equal the snapshot's, a refused
// lookup is an answer carrying the server's code and words and leaves the
// connection good, such a connection is answered while the server drains,
// and a hang-up before any reply byte is told apart from a reply that lies.
func TestSyncConn(t *testing.T) {
	b := newTestBackend(t, 6, 2, 50)
	var draining atomic.Bool
	s, err := NewServer(ServerConfig{Snapshot: b.snap.Load, Draining: draining.Load})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	client, server := net.Pipe()
	served := make(chan struct{})
	go func() { defer close(served); s.ServeConn(server) }()
	c, err := NewSyncConn(client, bufio.NewReader(client))
	if err != nil {
		t.Fatal(err)
	}
	sn := b.snap.Load()
	for _, drain := range []bool{false, true} {
		draining.Store(drain)
		want, _ := sn.Locate(1, 7)
		loc, replied, err := c.Locate(1, 7)
		if err != nil || !replied || loc != (Location{Disk: want, Epoch: sn.Epoch(), Healthy: true}) {
			t.Fatalf("draining=%v: Locate(1,7) = %+v replied=%v err=%v, want disk %d", drain, loc, replied, err, want)
		}
		_, lerr := sn.Locate(1, 50)
		loc, replied, err = c.Locate(1, 50)
		if err != nil || !replied || loc.Code != ErrCodeOutOfRange || loc.Msg != lerr.Error() {
			t.Fatalf("draining=%v: Locate(1,50) = %+v replied=%v err=%v, want code %d %q", drain, loc, replied, err, ErrCodeOutOfRange, lerr)
		}
	}
	s.Close()
	<-served
	if loc, replied, err := c.Locate(1, 7); err == nil || replied {
		t.Fatalf("Locate on a connection the server closed: %+v replied=%v err=%v", loc, replied, err)
	}

	// A well-framed reply to some other request is a lying connection.
	client, server = net.Pipe()
	go func() {
		readHandshake(server)
		writeHandshake(server, Version)
		br, bw := bufio.NewReader(server), bufio.NewWriter(server)
		var buf []byte
		frame.Read(br, &buf, MaxFrameLen)
		frame.Write(bw, append(appendHeader(nil, OpLocate|RespFlag, 99), make([]byte, 13)...), MaxFrameLen)
		bw.Flush()
	}()
	if c, err = NewSyncConn(client, bufio.NewReader(client)); err != nil {
		t.Fatal(err)
	}
	if loc, replied, err := c.Locate(1, 7); !errors.Is(err, errMalformed) || !replied {
		t.Fatalf("reply to request #99: %+v replied=%v err=%v, want errMalformed", loc, replied, err)
	}
}
