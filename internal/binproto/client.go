package binproto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"scaddar/internal/cm"
	"scaddar/internal/frame"
)

// Result is one resolved entry of a batch lookup.
type Result struct {
	// Disk is the logical disk holding the block; meaningful only when
	// Code is zero.
	Disk int
	// Healthy reports the disk's health at snapshot time.
	Healthy bool
	// Code is zero on success, otherwise the wire error code
	// (ErrCodeUnknownObject, ErrCodeOutOfRange, ...). Err converts it.
	Code uint8
}

// Err returns the entry's typed error, or nil on success.
func (r Result) Err() error {
	if r.Code == 0 {
		return nil
	}
	return ErrorFromCode(r.Code, "batch entry")
}

// EpochInfo is the answer to an OpEpoch request.
type EpochInfo struct {
	// Epoch is the placement epoch (cm.LocatorSnapshot.Epoch).
	Epoch uint64
	// Disks is the logical disk count.
	Disks int
	// Objects is the catalog size.
	Objects int
	// Reorganizing mirrors FlagReorganizing from the response.
	Reorganizing bool
	// Degraded mirrors FlagDegraded from the response.
	Degraded bool
}

// dialTimeout bounds the TCP connect, and then the handshake.
const dialTimeout = 5 * time.Second

// ClientConfig configures Dial.
type ClientConfig struct {
	// RequestTimeout, when positive, bounds each request's wait for its
	// response. Zero means wait until the connection dies.
	RequestTimeout time.Duration
}

// call is one in-flight request's completion slot. Calls are pooled: the
// reader goroutine decodes the response directly into the slot and signals
// done, so a steady request stream allocates nothing per call.
type call struct {
	op   uint8
	out  []Result // batch decode target (nil otherwise)
	n    int      // entries decoded into out
	ep   EpochInfo
	disk int
	errc uint8 // OpError code (0 = none)
	msg  string
	bad  bool // response undecodable
	done chan struct{}
}

// Client is a pipelined binary-protocol client over one persistent
// connection. Any number of goroutines may issue requests concurrently:
// writes are serialized, responses are matched to callers by correlation
// ID on a single reader goroutine. A Client is not safe for use after
// Close or a connection failure; Dial a new one.
type Client struct {
	nc net.Conn

	wmu  sync.Mutex // serializes request encoding + writing
	bw   *bufio.Writer
	wbuf []byte // request scratch, guarded by wmu

	mu      sync.Mutex // guards corr, pending, err
	corr    uint32
	pending map[uint32]*call
	err     error // set once the connection is dead

	pool    sync.Pool
	timeout time.Duration
	closed  atomic.Bool
}

// Dial connects, performs the version handshake, and starts the response
// reader.
func Dial(addr string, cfg ClientConfig) (*Client, error) {
	nc, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	return NewClient(nc, cfg)
}

// NewClient performs the handshake over an existing connection and starts
// the response reader. On error the connection is closed.
func NewClient(nc net.Conn, cfg ClientConfig) (*Client, error) {
	nc.SetDeadline(time.Now().Add(dialTimeout))
	if err := handshake(nc, nc); err != nil {
		nc.Close()
		return nil, err
	}
	nc.SetDeadline(time.Time{})
	c := &Client{
		nc:      nc,
		bw:      bufio.NewWriterSize(nc, 64<<10),
		pending: make(map[uint32]*call),
		timeout: cfg.RequestTimeout,
	}
	c.pool.New = func() any { return &call{done: make(chan struct{}, 1)} }
	go c.readLoop()
	return c, nil
}

// Close tears the connection down; in-flight requests fail.
func (c *Client) Close() error {
	c.closed.Store(true)
	return c.nc.Close()
}

// readLoop is the single response reader: it matches each frame to its
// pending call by correlation ID and decodes in place.
func (c *Client) readLoop() {
	br := bufio.NewReaderSize(c.nc, 64<<10)
	var buf []byte
	for {
		payload, err := frame.Read(br, &buf, MaxFrameLen)
		if err != nil {
			c.fail(fmt.Errorf("binproto: connection lost: %w", err))
			return
		}
		cur := frame.Cursor{Buf: payload}
		op, corr := cur.U8("opcode"), cur.U32("correlation ID")
		if !cur.OK() {
			c.fail(fmt.Errorf("%w: response shorter than header", errMalformed))
			return
		}
		c.mu.Lock()
		ca := c.pending[corr]
		delete(c.pending, corr)
		c.mu.Unlock()
		if ca == nil {
			// Stale response (caller timed out): drop it.
			continue
		}
		decodeInto(ca, op, &cur)
		ca.done <- struct{}{}
	}
}

// decodeInto fills a call slot from a response cursor.
func decodeInto(ca *call, op uint8, cur *frame.Cursor) {
	if op == OpError {
		ca.errc = cur.U8("error code")
		cur.U8("original opcode") // informational
		ca.msg = string(cur.Rest())
		ca.bad = ca.errc == 0 || !cur.OK()
		return
	}
	if op != ca.op|RespFlag {
		ca.bad = true
		return
	}
	switch ca.op {
	case OpLocate:
		ca.ep.Epoch = cur.U64("epoch")
		ca.disk = int(int32(cur.U32("disk")))
		flags := cur.U8("flags")
		ca.ep.Reorganizing = flags&FlagReorganizing != 0
		ca.ep.Degraded = flags&FlagDegraded != 0
		if flags&FlagUnhealthyDisk == 0 {
			ca.n = 1 // reused as "healthy" marker for single locate
		} else {
			ca.n = 0
		}
		ca.bad = cur.Done("locate response") != nil
	case OpLocateBatch:
		ca.ep.Epoch = cur.U64("epoch")
		flags := cur.U8("flags")
		ca.ep.Reorganizing = flags&FlagReorganizing != 0
		ca.ep.Degraded = flags&FlagDegraded != 0
		n := int(cur.U32("entry count"))
		if n > len(ca.out) {
			ca.bad = true
			return
		}
		for i := 0; i < n; i++ {
			d := int(int32(cur.U32("entry disk")))
			st := cur.U8("entry status")
			ca.out[i] = Result{
				Disk:    d,
				Healthy: st&EntryUnhealthy == 0 && st&^EntryUnhealthy == 0,
				Code:    st &^ EntryUnhealthy,
			}
		}
		ca.n = n
		ca.bad = cur.Done("batch response") != nil
	case OpEpoch:
		ca.ep.Epoch = cur.U64("epoch")
		flags := cur.U8("flags")
		ca.ep.Reorganizing = flags&FlagReorganizing != 0
		ca.ep.Degraded = flags&FlagDegraded != 0
		ca.ep.Disks = int(cur.U32("disks"))
		ca.ep.Objects = int(cur.U32("objects"))
		ca.bad = cur.Done("epoch response") != nil
	case OpPing, OpDrain: // the body is the echo, or empty
	}
}

// fail marks the client dead and releases every waiter.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		if c.closed.Load() {
			err = net.ErrClosed
		}
		c.err = err
	}
	pending := c.pending
	c.pending = make(map[uint32]*call)
	c.mu.Unlock()
	for _, ca := range pending {
		ca.errc = 0
		ca.bad = true
		ca.done <- struct{}{}
	}
}

// roundTrip sends one request and waits for its response. encode appends
// the request body (after the opcode/corr header) to the scratch.
func (c *Client) roundTrip(ca *call, encode func(dst []byte) []byte) error {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return err
	}
	c.corr++
	corr := c.corr
	c.pending[corr] = ca
	c.mu.Unlock()

	c.wmu.Lock()
	buf := appendHeader(c.wbuf[:0], ca.op, corr)
	buf = encode(buf)
	c.wbuf = buf[:0]
	err := frame.Write(c.bw, buf, MaxFrameLen)
	if err == nil {
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, corr)
		c.mu.Unlock()
		c.fail(fmt.Errorf("binproto: write: %w", err))
		return err
	}

	if c.timeout > 0 {
		t := time.NewTimer(c.timeout)
		defer t.Stop()
		select {
		case <-ca.done:
		case <-t.C:
			c.mu.Lock()
			abandoned := c.pending[corr] == ca
			if abandoned {
				delete(c.pending, corr)
			}
			c.mu.Unlock()
			if abandoned {
				return fmt.Errorf("binproto: request timed out after %v", c.timeout)
			}
			<-ca.done // response landed while we were giving up
		}
	} else {
		<-ca.done
	}
	if ca.bad {
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		if err != nil {
			return err
		}
		return errMalformed
	}
	if ca.errc != 0 {
		return ErrorFromCode(ca.errc, ca.msg)
	}
	return nil
}

// newCall takes a pooled call slot for an opcode.
func (c *Client) newCall(op uint8) *call {
	ca := c.pool.Get().(*call)
	ca.op, ca.out, ca.n, ca.ep, ca.disk, ca.errc, ca.msg, ca.bad = op, nil, 0, EpochInfo{}, 0, 0, "", false
	return ca
}

// Locate resolves one block. The returned epoch is the placement epoch of
// the answering snapshot; healthy reports the disk's health there. Lookup
// failures come back as the same typed sentinels a local
// LocatorSnapshot.Locate returns (cm.ErrUnknownObject, ...).
func (c *Client) Locate(object, index int) (disk int, epoch uint64, healthy bool, err error) {
	ca := c.newCall(OpLocate)
	defer c.pool.Put(ca)
	err = c.roundTrip(ca, func(dst []byte) []byte { return appendLocate(dst, uint32(object), uint32(index)) })
	if err != nil {
		return 0, 0, false, err
	}
	return ca.disk, ca.ep.Epoch, ca.n == 1, nil
}

// LocateBatch resolves len(addrs) blocks in one frame; out must be at
// least as long. Per-entry failures land in out[i].Code without failing
// the batch. The returned epoch is the single snapshot epoch the whole
// batch was answered under — the batch is atomic with respect to
// reorganizations.
func (c *Client) LocateBatch(addrs []cm.BlockAddr, out []Result) (epoch uint64, err error) {
	if len(out) < len(addrs) {
		return 0, errors.New("binproto: LocateBatch output shorter than input")
	}
	if len(addrs) > MaxBatch {
		return 0, fmt.Errorf("%w: %d > %d", ErrTooLarge, len(addrs), MaxBatch)
	}
	ca := c.newCall(OpLocateBatch)
	ca.out = out
	defer c.pool.Put(ca)
	err = c.roundTrip(ca, func(dst []byte) []byte {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(addrs)))
		for _, a := range addrs {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(a.Object))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(a.Index))
		}
		return dst
	})
	if err != nil {
		return 0, err
	}
	if ca.n != len(addrs) {
		return 0, fmt.Errorf("%w: %d entries for %d lookups", errMalformed, ca.n, len(addrs))
	}
	return ca.ep.Epoch, nil
}

// Epoch fetches the current placement epoch and snapshot shape.
func (c *Client) Epoch() (EpochInfo, error) {
	ca := c.newCall(OpEpoch)
	defer c.pool.Put(ca)
	err := c.roundTrip(ca, func(dst []byte) []byte { return dst })
	return ca.ep, err
}

// Ping round-trips an empty frame.
func (c *Client) Ping() error {
	ca := c.newCall(OpPing)
	defer c.pool.Put(ca)
	return c.roundTrip(ca, func(dst []byte) []byte { return dst })
}

// Drain asks the server to answer everything already pipelined on this
// connection and close it. After a successful Drain the client is spent.
func (c *Client) Drain() error {
	ca := c.newCall(OpDrain)
	defer c.pool.Put(ca)
	return c.roundTrip(ca, func(dst []byte) []byte { return dst })
}

// Pool is a fixed set of clients to one address, handed out round-robin so
// many goroutines can drive full pipelines without serializing on one
// connection's writer lock.
type Pool struct {
	clients []*Client
	next    atomic.Uint64
}

// DialPool opens size connections to addr.
func DialPool(addr string, size int, cfg ClientConfig) (*Pool, error) {
	if size <= 0 {
		size = 1
	}
	p := &Pool{clients: make([]*Client, size)}
	for i := range p.clients {
		c, err := Dial(addr, cfg)
		if err != nil {
			p.Close()
			return nil, err
		}
		p.clients[i] = c
	}
	return p, nil
}

// Get returns the next client round-robin.
func (p *Pool) Get() *Client {
	return p.clients[p.next.Add(1)%uint64(len(p.clients))]
}

// Close closes every connection in the pool.
func (p *Pool) Close() {
	for _, c := range p.clients {
		if c != nil {
			c.Close()
		}
	}
}
