package binproto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"scaddar/internal/cm"
	"scaddar/internal/frame"
	"scaddar/internal/obs"
)

// ServerConfig configures a binary lookup server. Snapshot is the only
// required field.
type ServerConfig struct {
	// Snapshot returns the current locator snapshot; every request frame
	// is answered from exactly one call, so a batch is atomic with
	// respect to the placement epoch it echoes. The gateway's Snapshot
	// method satisfies this directly.
	Snapshot func() *cm.LocatorSnapshot
	// Draining, when non-nil and true, makes the server refuse new
	// lookups with ErrCodeDraining while still answering ping and drain.
	Draining func() bool
	// Registry receives the bin_* counters and histograms; nil creates a
	// private registry.
	Registry *obs.Registry
	// Logf, when non-nil, receives connection-level diagnostics.
	Logf func(format string, args ...any)
}

// Server answers binary lookup requests over persistent TCP connections.
// Each connection is owned by one goroutine: it reads a frame, answers it
// from one snapshot load, and flushes when the pipelined burst is drained.
type Server struct {
	cfg ServerConfig
	m   *binMetrics

	// Connection limits, set once by NewServer; fields rather than constants
	// only so that this package's tests can shrink them before Serve.
	// maxBatch is the per-frame lookup bound (MaxBatch). writeTimeout is how
	// long one reply write may block before the connection is evicted as a
	// slow reader; idleTimeout how long a connection may sit with no complete
	// request before it is closed. writeBuffer is the per-connection pending-
	// reply queue in bytes: replies beyond it block on the socket under the
	// write deadline instead of growing memory.
	maxBatch                  int
	writeTimeout, idleTimeout time.Duration
	writeBuffer               int

	mu     sync.Mutex
	closed bool
	lns    map[net.Listener]struct{}
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// NewServer validates the config.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Snapshot == nil {
		return nil, errors.New("binproto: ServerConfig.Snapshot is required")
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Server{
		cfg:          cfg,
		m:            newBinMetrics(reg),
		maxBatch:     MaxBatch,
		writeTimeout: 5 * time.Second,
		idleTimeout:  2 * time.Minute,
		writeBuffer:  64 << 10,
		lns:          make(map[net.Listener]struct{}),
		conns:        make(map[net.Conn]struct{}),
	}, nil
}

// Serve accepts connections on ln until the listener fails or the server
// closes. It blocks, like http.Server.Serve; run it in its own goroutine.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("binproto: server closed")
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			delete(s.lns, ln)
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		if s.track(nc) {
			go s.handleConn(nc, true)
		}
	}
}

// ServeConn serves a connection the caller accepted itself — the gateway's
// HTTP upgrade (docs/PROTOCOL.md §1.1) — on the calling goroutine, until it
// ends or the server closes. It is answered while the server drains, as an
// HTTP read is: ErrCodeDraining is for connections a Serve listener accepted.
func (s *Server) ServeConn(nc net.Conn) {
	if s.track(nc) {
		s.handleConn(nc, false)
	}
}

// track registers a live connection for Close to end and wait for; on a
// closed server it closes the connection instead and reports false.
func (s *Server) track(nc net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		nc.Close()
		return false
	}
	s.conns[nc] = struct{}{}
	s.wg.Add(1)
	return true
}

// Close stops all listeners, closes every live connection, and waits for
// their handlers to return.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	for ln := range s.lns {
		ln.Close()
	}
	for nc := range s.conns {
		nc.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// srvConn is one connection's reusable state: input frame buffer, response
// scratch, and the batch-lookup working set. Everything here is touched by
// the single handler goroutine only, so steady-state request handling
// allocates nothing.
type srvConn struct {
	nc  net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer
	in  []byte
	out []byte
	// listened: a Serve listener accepted it, so it is refused while draining.
	listened bool
	// batch working set, grown once to the client's steady batch size.
	addrs   []cm.BlockAddr
	disks   []int32
	status  []uint8
	scratch cm.BatchScratch
}

// handleConn owns one connection from handshake to close.
func (s *Server) handleConn(nc net.Conn, listened bool) {
	defer func() {
		nc.Close()
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		s.m.connsActive.Add(-1)
		s.wg.Done()
	}()
	s.m.connsTotal.Inc()
	s.m.connsActive.Add(1)

	nc.SetReadDeadline(time.Now().Add(s.idleTimeout))
	ver, err := readHandshake(nc)
	if err != nil {
		s.logf("binproto: %s: %v", nc.RemoteAddr(), err)
		return
	}
	if ver != Version {
		// Unsupported version: answer with ours and hang up; the client
		// reports the mismatch.
		writeHandshake(nc, Version)
		s.logf("binproto: %s: unsupported version %d", nc.RemoteAddr(), ver)
		return
	}
	if err := writeHandshake(nc, Version); err != nil {
		return
	}

	c := &srvConn{
		nc:       nc,
		br:       bufio.NewReaderSize(nc, 64<<10),
		bw:       bufio.NewWriterSize(nc, s.writeBuffer),
		listened: listened,
	}
	for {
		nc.SetReadDeadline(time.Now().Add(s.idleTimeout))
		payload, err := frame.Read(c.br, &c.in, MaxFrameLen)
		if err != nil {
			if errors.Is(err, frame.ErrCorrupt) {
				s.m.badFrames.Inc()
				s.logf("binproto: %s: %v", nc.RemoteAddr(), err)
			} else if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.logf("binproto: %s: read: %v", nc.RemoteAddr(), err)
			}
			return
		}
		drain, err := s.handleFrame(c, payload)
		if err != nil {
			// A reply write failed: the peer is gone or too slow to keep
			// its bounded reply queue moving.
			if isTimeout(err) {
				s.m.slowEvictions.Inc()
				s.logf("binproto: %s: evicting slow reader: %v", nc.RemoteAddr(), err)
			}
			return
		}
		// Flush when the pipelined burst is drained: more buffered input
		// means more replies are coming, so batching them into one write
		// is free.
		if c.br.Buffered() == 0 || drain {
			if err := s.flush(c); err != nil {
				if isTimeout(err) {
					s.m.slowEvictions.Inc()
					s.logf("binproto: %s: evicting slow reader: %v", nc.RemoteAddr(), err)
				}
				return
			}
		}
		if drain {
			return
		}
	}
}

// handleFrame answers one request payload. It returns drain=true when the
// connection should close after the pending replies flush.
func (s *Server) handleFrame(c *srvConn, payload []byte) (drain bool, err error) {
	start := time.Now()
	s.m.frames.Inc()
	cur := frame.Cursor{Buf: payload}
	op, corr := cur.U8("opcode"), cur.U32("correlation ID")
	if !cur.OK() {
		// Too short to even carry a correlation ID; answer corr 0.
		s.m.errorFrames.Inc()
		return false, s.writeReply(c, appendError(c.out[:0], 0, ErrCodeMalformed, op, "frame shorter than header"))
	}

	draining := c.listened && s.cfg.Draining != nil && s.cfg.Draining()
	switch op {
	case OpLocate:
		if draining {
			s.m.errorFrames.Inc()
			return false, s.writeReply(c, appendError(c.out[:0], corr, ErrCodeDraining, op, "server draining"))
		}
		object, index := cur.U32("object"), cur.U32("block")
		if cur.Done("locate request") != nil {
			s.m.errorFrames.Inc()
			return false, s.writeReply(c, appendError(c.out[:0], corr, ErrCodeMalformed, op, "locate body is object u32, block u32"))
		}
		sn := s.cfg.Snapshot()
		s.m.lookups.Inc()
		d, lerr := sn.Locate(int(object), int(index))
		if lerr != nil {
			s.m.lookupErrors.Inc()
			s.m.errorFrames.Inc()
			return false, s.writeReply(c, appendError(c.out[:0], corr, CodeForError(lerr), op, lerr.Error()))
		}
		out := appendHeader(c.out[:0], op|RespFlag, corr)
		out = binary.LittleEndian.AppendUint64(out, sn.Epoch())
		out = binary.LittleEndian.AppendUint32(out, uint32(d))
		out = append(out, snapFlags(sn)|diskFlag(sn, d))
		err = s.writeReply(c, out)

	case OpLocateBatch:
		if draining {
			s.m.errorFrames.Inc()
			return false, s.writeReply(c, appendError(c.out[:0], corr, ErrCodeDraining, op, "server draining"))
		}
		// The one frame that carries a thousand fields is checked for size
		// once and read in place, not field by field through the cursor.
		body := cur.Rest()
		if len(body) < 4 {
			s.m.errorFrames.Inc()
			return false, s.writeReply(c, appendError(c.out[:0], corr, ErrCodeMalformed, op, "batch body lacks count"))
		}
		count := int(binary.LittleEndian.Uint32(body))
		if count > s.maxBatch {
			s.m.errorFrames.Inc()
			return false, s.writeReply(c, appendError(c.out[:0], corr, ErrCodeTooLarge, op,
				fmt.Sprintf("batch of %d exceeds limit %d", count, s.maxBatch)))
		}
		pairs := body[4:]
		if len(pairs) != 8*count {
			s.m.errorFrames.Inc()
			return false, s.writeReply(c, appendError(c.out[:0], corr, ErrCodeMalformed, op, "batch body is count u32 then count (object u32, block u32) pairs"))
		}
		c.addrs = growAddrs(c.addrs, count)
		for i := range c.addrs[:count] {
			p := pairs[8*i : 8*i+8]
			c.addrs[i] = cm.BlockAddr{Object: int(binary.LittleEndian.Uint32(p)), Index: int(binary.LittleEndian.Uint32(p[4:]))}
		}
		c.disks = growInt32s(c.disks, count)
		c.status = growBytes(c.status, count)
		sn := s.cfg.Snapshot()
		s.m.lookups.Add(uint64(count))
		sn.LocateBatch(c.addrs[:count], c.disks, c.status, &c.scratch)
		const head, entry = 5 + 8 + 1 + 4, 4 + 1
		out := c.out[:0]
		if cap(out) < head+entry*count {
			out = make([]byte, 0, head+entry*count)
		}
		out = appendHeader(out, op|RespFlag, corr)
		out = binary.LittleEndian.AppendUint64(out, sn.Epoch())
		out = append(out, snapFlags(sn))
		out = binary.LittleEndian.AppendUint32(out, uint32(count))
		out = out[:head+entry*count]
		for i := 0; i < count; i++ {
			st := entryStatusForLocate(c.status[i])
			if st != 0 {
				s.m.lookupErrors.Inc()
			} else if !sn.Healthy(int(c.disks[i])) {
				st = EntryUnhealthy
			}
			e := out[head+entry*i : head+entry*i+entry]
			binary.LittleEndian.PutUint32(e, uint32(c.disks[i]))
			e[4] = st
		}
		err = s.writeReply(c, out)

	case OpEpoch:
		if cur.Done("epoch request") != nil {
			s.m.errorFrames.Inc()
			return false, s.writeReply(c, appendError(c.out[:0], corr, ErrCodeMalformed, op, "epoch request has no body"))
		}
		sn := s.cfg.Snapshot()
		out := appendHeader(c.out[:0], op|RespFlag, corr)
		out = binary.LittleEndian.AppendUint64(out, sn.Epoch())
		out = append(out, snapFlags(sn))
		out = binary.LittleEndian.AppendUint32(out, uint32(sn.N()))
		out = binary.LittleEndian.AppendUint32(out, uint32(sn.ObjectCount()))
		err = s.writeReply(c, out)

	case OpPing:
		body := cur.Rest()
		if len(body) > maxPingBody {
			s.m.errorFrames.Inc()
			return false, s.writeReply(c, appendError(c.out[:0], corr, ErrCodeMalformed, op,
				fmt.Sprintf("ping body of %d exceeds %d bytes", len(body), maxPingBody)))
		}
		out := appendHeader(c.out[:0], op|RespFlag, corr)
		out = append(out, body...)
		err = s.writeReply(c, out)

	case OpDrain:
		out := appendHeader(c.out[:0], op|RespFlag, corr)
		return true, s.writeReply(c, out)

	default:
		// Unknown opcode: the frame boundary was sound, so answer a typed
		// error and keep the connection.
		s.m.errorFrames.Inc()
		err = s.writeReply(c, appendError(c.out[:0], corr, ErrCodeUnknownOpcode, op,
			fmt.Sprintf("unknown opcode 0x%02x", op)))
	}
	if err == nil {
		s.m.frameSeconds.ObserveDuration(time.Since(start))
	}
	return false, err
}

// writeReply frames one response into the connection's bounded reply
// buffer, arming the write deadline first so that a full buffer draining
// to a stalled peer errors out instead of blocking forever. c.out is
// retained as the next response's scratch.
func (s *Server) writeReply(c *srvConn, payload []byte) error {
	c.out = payload[:0]
	c.nc.SetWriteDeadline(time.Now().Add(s.writeTimeout))
	return frame.Write(c.bw, payload, MaxFrameLen)
}

// flush pushes buffered replies to the socket under the write deadline.
func (s *Server) flush(c *srvConn) error {
	c.nc.SetWriteDeadline(time.Now().Add(s.writeTimeout))
	return c.bw.Flush()
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// snapFlags renders a snapshot's state bits.
func snapFlags(sn *cm.LocatorSnapshot) uint8 {
	var f uint8
	if sn.Reorganizing() {
		f |= FlagReorganizing
	}
	if sn.Degraded() {
		f |= FlagDegraded
	}
	return f
}

// diskFlag renders the single-locate health bit.
func diskFlag(sn *cm.LocatorSnapshot, d int) uint8 {
	if sn.Healthy(d) {
		return 0
	}
	return FlagUnhealthyDisk
}

// isTimeout reports whether an error is a net timeout (slow-reader
// eviction rather than a peer hangup).
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

func growAddrs(s []cm.BlockAddr, n int) []cm.BlockAddr {
	if cap(s) < n {
		return make([]cm.BlockAddr, n)
	}
	return s[:n]
}

func growInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growBytes(s []byte, n int) []byte {
	if cap(s) < n {
		return make([]byte, n)
	}
	return s[:n]
}

// binMetrics holds the binary path's observability cells, resolved once at
// construction like the gateway's gwMetrics — never looked up on the hot
// path.
type binMetrics struct {
	connsTotal    *obs.Counter
	connsActive   *obs.Gauge
	frames        *obs.Counter
	lookups       *obs.Counter
	lookupErrors  *obs.Counter
	errorFrames   *obs.Counter
	badFrames     *obs.Counter
	slowEvictions *obs.Counter
	frameSeconds  *obs.Histogram
}

func newBinMetrics(reg *obs.Registry) *binMetrics {
	return &binMetrics{
		connsTotal:    reg.NewCounter("bin_connections_total", "Binary protocol connections accepted."),
		connsActive:   reg.NewGauge("bin_connections_active", "Binary protocol connections currently open."),
		frames:        reg.NewCounter("bin_frames_total", "Binary protocol request frames handled."),
		lookups:       reg.NewCounter("bin_lookups_total", "Block lookups answered over the binary protocol."),
		lookupErrors:  reg.NewCounter("bin_lookup_errors_total", "Binary protocol lookups that failed (unknown object, out of range)."),
		errorFrames:   reg.NewCounter("bin_error_frames_total", "Typed error frames sent."),
		badFrames:     reg.NewCounter("bin_bad_frames_total", "Structurally invalid frames received (connection dropped)."),
		slowEvictions: reg.NewCounter("bin_slow_evictions_total", "Connections evicted because reply writes hit the write deadline."),
		frameSeconds:  reg.NewHistogram("bin_frame_seconds", "Binary protocol per-frame service time.", obs.LatencyBuckets()),
	}
}
