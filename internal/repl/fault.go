package repl

// FaultInjector: a seeded TCP proxy that sits between a follower and its
// leader and misbehaves on purpose. The chaos harness points followers at
// the proxy and asserts byte-identical convergence through every fault the
// schedule produces. Faults model a hostile network, not a hostile peer:
//
//   - drop: close both sides mid-stream (connection reset)
//   - stall: stop forwarding long enough to trip the follower's read
//     timeout
//   - truncate: forward a prefix of a chunk — usually mid-frame — then
//     close, exercising the CRC/length validation on partial frames
//   - duplicate: forward a chunk twice, exercising the follower's
//     at-or-below-applied-LSN skip
//
// All decisions come from one seeded generator consulted per forwarded
// chunk, so a failing schedule replays exactly from its seed.

import (
	"net"
	"sync"
	"time"

	"scaddar/internal/prng"
)

// FaultConfig tunes the injector's misbehavior. Rates are per forwarded
// chunk in [0,1); zero disables that fault.
type FaultConfig struct {
	// Target is the leader address the proxy forwards to. Required.
	Target string
	// Seed drives the fault schedule; 0 picks a fixed default.
	Seed uint64
	// DropRate closes the connection instead of forwarding a chunk.
	DropRate float64
	// StallRate pauses forwarding for StallFor before a chunk.
	//unreached:testsupport the chaos harness stalls; examples/replication only drops
	StallRate float64
	// StallFor is the stall duration; 0 means 3s (enough to trip a 2s read
	// timeout).
	//unreached:testsupport set with StallRate
	StallFor time.Duration
	// TruncateRate forwards a partial chunk (at least 1 byte short) and
	// then closes the connection.
	TruncateRate float64
	// DuplicateRate forwards a chunk twice.
	DuplicateRate float64
	// Logf, when non-nil, receives one line per injected fault.
	//unreached:testsupport a failing chaos seed prints its schedule through it
	Logf func(format string, args ...any)
}

// FaultInjector is a running chaos proxy. Point followers at Addr().
type FaultInjector struct {
	cfg FaultConfig
	ln  net.Listener

	mu     sync.Mutex
	rng    prng.Source
	conns  map[net.Conn]struct{}
	closed bool
	faults uint64
	wg     sync.WaitGroup
}

// StartFaultInjector listens on a fresh loopback port and proxies every
// connection to cfg.Target under the configured fault schedule.
func StartFaultInjector(cfg FaultConfig) (*FaultInjector, error) {
	if cfg.StallFor <= 0 {
		cfg.StallFor = 3 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0xfa17
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	fi := &FaultInjector{
		cfg:   cfg,
		ln:    ln,
		rng:   prng.NewSplitMix64(cfg.Seed),
		conns: make(map[net.Conn]struct{}),
	}
	fi.wg.Add(1)
	go fi.acceptLoop()
	return fi, nil
}

// Addr is the proxy's listen address — what followers dial.
func (fi *FaultInjector) Addr() string { return fi.ln.Addr().String() }

// Faults reports how many faults the schedule has injected so far; the
// chaos harness asserts it is non-zero, or the run proved nothing.
func (fi *FaultInjector) Faults() uint64 {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.faults
}

// Close stops the proxy and severs every proxied connection.
func (fi *FaultInjector) Close() error {
	fi.mu.Lock()
	if fi.closed {
		fi.mu.Unlock()
		return nil
	}
	fi.closed = true
	for c := range fi.conns {
		c.Close()
	}
	fi.mu.Unlock()
	fi.ln.Close()
	fi.wg.Wait()
	return nil
}

func (fi *FaultInjector) logf(format string, args ...any) {
	if fi.cfg.Logf != nil {
		fi.cfg.Logf(format, args...)
	}
}

// roll draws one fault decision; rate 0 never fires.
func (fi *FaultInjector) roll(rate float64) bool {
	if rate <= 0 {
		return false
	}
	fi.mu.Lock()
	v := fi.rng.Next()
	fi.mu.Unlock()
	return float64(v%1_000_000)/1_000_000 < rate
}

func (fi *FaultInjector) injected(kind string) {
	fi.mu.Lock()
	fi.faults++
	n := fi.faults
	fi.mu.Unlock()
	fi.logf("fault injector: %s (fault #%d)", kind, n)
}

func (fi *FaultInjector) track(c net.Conn) bool {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	if fi.closed {
		return false
	}
	fi.conns[c] = struct{}{}
	return true
}

func (fi *FaultInjector) untrack(c net.Conn) {
	fi.mu.Lock()
	delete(fi.conns, c)
	fi.mu.Unlock()
}

func (fi *FaultInjector) acceptLoop() {
	defer fi.wg.Done()
	for {
		client, err := fi.ln.Accept()
		if err != nil {
			return
		}
		upstream, err := net.DialTimeout("tcp", fi.cfg.Target, 2*time.Second)
		if err != nil {
			client.Close()
			continue
		}
		if !fi.track(client) || !fi.track(upstream) {
			client.Close()
			upstream.Close()
			return
		}
		// Client→leader (the 13-byte handshake) is forwarded faithfully;
		// the interesting traffic — and the faults — ride the
		// leader→client stream.
		fi.wg.Add(2)
		go func() {
			defer fi.wg.Done()
			defer fi.untrack(client)
			fi.forwardClean(client, upstream)
		}()
		go func() {
			defer fi.wg.Done()
			defer fi.untrack(upstream)
			fi.forwardFaulty(upstream, client)
		}()
	}
}

// forwardClean copies src to dst until either side dies, then severs both.
func (fi *FaultInjector) forwardClean(src, dst net.Conn) {
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := dst.Write(buf[:n]); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	src.Close()
	dst.Close()
}

// forwardFaulty copies src (leader) to dst (follower), consulting the
// fault schedule before each chunk.
func (fi *FaultInjector) forwardFaulty(src, dst net.Conn) {
	defer src.Close()
	defer dst.Close()
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if fi.roll(fi.cfg.DropRate) {
				fi.injected("drop")
				return
			}
			if fi.roll(fi.cfg.StallRate) {
				fi.injected("stall")
				time.Sleep(fi.cfg.StallFor)
			}
			if n > 1 && fi.roll(fi.cfg.TruncateRate) {
				fi.injected("truncate")
				// At least one byte, at most n-1: always a real partial.
				fi.mu.Lock()
				cut := 1 + int(fi.rng.Next()%uint64(n-1))
				fi.mu.Unlock()
				dst.Write(buf[:cut])
				return
			}
			if fi.roll(fi.cfg.DuplicateRate) {
				fi.injected("duplicate")
				if _, werr := dst.Write(buf[:n]); werr != nil {
					return
				}
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}
