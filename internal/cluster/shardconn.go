package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"scaddar/internal/binproto"
	"scaddar/internal/dataplane"
)

// The shard-call primitives. Every request the router sends a shard goes to
// its HTTP port over pooled persistent connections, written and read on the
// calling goroutine by one loop, (*shard).roundTrip. A block read is
// (*shard).locate: one binary OpLocate frame each way on a connection upgraded
// to the lookup protocol (docs/PROTOCOL.md §1.1). Everything else — sessions,
// admin, scale, fan-out, probes, migration — is (*shard).call, an HTTP/1.1
// exchange. ARCHITECTURE.md ("One shard-call primitive") states the contract:
// deadline, retry, size cap, the two idle lists, who closes what.

const (
	// maxReplyBytes caps a buffered shard reply body.
	maxReplyBytes = 8 << 20
	// maxIdleConns bounds the idle connections kept per shard and kind; a
	// caller beyond it still dials, and its connection is closed on return.
	maxIdleConns = 64
	// connBufBytes sizes a connection's reply reader and request scratch.
	connBufBytes = 4 << 10
)

var (
	// errReplyTooLarge reports a shard reply body over maxReplyBytes.
	errReplyTooLarge = errors.New("cluster: shard reply exceeds 8 MiB")
	// errStaleConn reports a request other than a GET that found its pooled
	// connection dead: it was not replayed, and says nothing about the shard.
	errStaleConn = errors.New("cluster: pooled shard connection was closed")
)

// shardReply is one buffered shard response. feed is the position the shard
// stamped on it (dataplane.FeedHeader), which call has folded into the shard's
// floor; the zero ID no feed has means no stamp.
type shardReply struct {
	status      int
	contentType string
	retryAfter  string
	body        []byte
	feed        dataplane.FeedPos
}

// shardConn is one persistent connection to a shard: plain HTTP/1.1, or,
// once locate has upgraded it and set bin, the lookup protocol.
type shardConn struct {
	nc     net.Conn
	br     *bufio.Reader
	bin    *binproto.SyncConn
	req    []byte // request scratch, reused across exchanges
	reused bool   // has carried a complete exchange before: came from the pool
	poison func() // expires the deadline; bound once for context.AfterFunc
}

// call performs one HTTP request against the shard; only a GET is replayed.
func (s *shard) call(ctx context.Context, method, path string, body []byte) (rep shardReply, err error) {
	for i := 0; i < len(path); i++ {
		if path[i] <= ' ' || path[i] == 0x7f {
			return shardReply{}, fmt.Errorf("cluster: request path %q has a control byte or space", path)
		}
	}
	before := s.floor.Load()
	err = s.roundTrip(ctx, s.idle, method == http.MethodGet, func(c *shardConn) (replied, keep bool, err error) {
		b := append(c.req[:0], method...)
		b = append(b, ' ')
		b = append(b, s.prefix...)
		b = append(b, path...)
		b = append(b, " HTTP/1.1\r\nHost: "...)
		b = append(b, s.host...)
		if body != nil {
			b = append(b, "\r\nContent-Type: application/json"...)
		}
		if body != nil || method != http.MethodGet {
			b = append(b, "\r\nContent-Length: "...)
			b = strconv.AppendInt(b, int64(len(body)), 10)
		}
		b = append(b, "\r\n\r\n"...)
		c.req = b[:0]
		if len(body) <= cap(b)-len(b) {
			_, err = c.nc.Write(append(b, body...))
		} else if _, err = c.nc.Write(b); err == nil {
			_, err = c.nc.Write(body)
		}
		if err == nil {
			_, err = c.br.Peek(1)
		}
		if err != nil {
			return false, false, err
		}
		rep, keep, err = readReply(c.br, method)
		return true, keep, err
	})
	if err != nil {
		return shardReply{}, err
	}
	if rep.feed.ID != 0 {
		s.heard(before, rep.feed)
	}
	return rep, nil
}

// locate asks the shard where one block lives: one OpLocate exchange, after
// the HTTP upgrade and the version handshake on a freshly dialed connection.
// A refused lookup is an answer (loc.Code); an error is the transport's, and
// a shard that answers the upgrade with anything but the 101 is one, as a
// shard that refuses the connect is.
func (s *shard) locate(ctx context.Context, object, index uint32) (loc binproto.Location, err error) {
	err = s.roundTrip(ctx, s.binIdle, true, func(c *shardConn) (replied, keep bool, err error) {
		if c.bin == nil {
			if _, err = c.nc.Write(binproto.AppendUpgradeRequest(c.req[:0], s.prefix, s.host)); err != nil {
				return false, false, err
			}
			resp, rerr := http.ReadResponse(c.br, nil)
			if rerr != nil {
				return false, false, rerr
			}
			if resp.StatusCode != http.StatusSwitchingProtocols || !strings.EqualFold(resp.Header.Get("Upgrade"), binproto.UpgradeToken) {
				return false, false, fmt.Errorf("cluster: shard refused the upgrade to %s: %s", binproto.UpgradeToken, resp.Status)
			}
			if c.bin, err = binproto.NewSyncConn(c.nc, c.br); err != nil {
				return false, false, err
			}
		}
		loc, replied, err = c.bin.Locate(object, index)
		return replied, true, err
	})
	return loc, err
}

// roundTrip runs do — one request and its reply, after whatever the protocol
// opens a fresh connection with — over a connection from idle or a new dial,
// under the deadline min(ctx deadline, now+ShardTimeout), ctx's cancellation
// poisoning the connection. do reports whether any reply byte arrived and
// whether the connection may carry another exchange. When a pooled connection
// turns out dead before any reply byte, for a reason other than the deadline,
// do is replayed once on a fresh dial if replay allows it; nothing else ever is.
func (s *shard) roundTrip(ctx context.Context, idle chan *shardConn, replay bool,
	do func(*shardConn) (replied, keep bool, err error)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	deadline := time.Now().Add(s.timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	s.busy.Add(1)
	defer s.busy.Add(-1)
	var c *shardConn
	select {
	case c = <-idle:
	default:
	}
	for {
		if c == nil {
			d := net.Dialer{Deadline: deadline}
			nc, err := d.DialContext(ctx, "tcp", s.addr)
			if err != nil {
				return err
			}
			s.dials.Inc()
			c = &shardConn{nc: nc, br: bufio.NewReaderSize(nc, connBufBytes), req: make([]byte, 0, connBufBytes)}
			c.poison = func() { _ = nc.SetDeadline(time.Unix(1, 0)) }
		}
		_ = c.nc.SetDeadline(deadline) // fails only on a closed connection, which the write reports
		stop := context.AfterFunc(ctx, c.poison)
		replied, keep, err := do(c)
		stale := !replied && c.reused && !errors.Is(err, os.ErrDeadlineExceeded)
		// A poison already under way can land at any later moment, so the
		// connection is not reusable even though this reply is complete.
		if stop() && keep && err == nil && c.br.Buffered() == 0 {
			c.reused = true
			s.release(idle, c)
		} else {
			_ = c.nc.Close()
		}
		if err == nil {
			return nil
		}
		if stale {
			// The shard restarted under the pool, or timed this connection
			// out: the idle siblings are likely as dead as it was.
			s.closeIdle()
			if replay {
				s.connRetries.Inc()
				c = nil
				continue
			}
			return fmt.Errorf("%w: %v", errStaleConn, err)
		}
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
		}
		return err
	}
}

// release returns a reusable connection to its idle list, or closes it when
// the list is full or the pool closed.
func (s *shard) release(idle chan *shardConn, c *shardConn) {
	if !s.poolClosed.Load() {
		select {
		case idle <- c:
			if s.poolClosed.Load() { // closePool may have drained before the send
				s.closeIdle()
			}
			return
		default:
		}
	}
	_ = c.nc.Close()
}

// closeIdle closes every idle connection of both kinds.
func (s *shard) closeIdle() {
	for {
		select {
		case c := <-s.idle:
			_ = c.nc.Close()
		case c := <-s.binIdle:
			_ = c.nc.Close()
		default:
			return
		}
	}
}

// closePool closes the idle connections for good: from here on every
// connection is closed when its exchange ends.
func (s *shard) closePool() {
	s.poolClosed.Store(true)
	s.closeIdle()
}

// headRequest tells http.ReadResponse a reply answers a HEAD and so has no
// body whatever its Content-Length says. Shared and never written through.
var headRequest = &http.Request{Method: http.MethodHead}

// readReply reads one HTTP/1.1 response to a request of the given method
// through http.ReadResponse, buffering a body of at most maxReplyBytes.
func readReply(br *bufio.Reader, method string) (rep shardReply, keep bool, err error) {
	var req *http.Request // nil reads as a GET: every other method frames its reply the same way
	if method == http.MethodHead {
		req = headRequest
	}
	resp, err := http.ReadResponse(br, req)
	if err != nil {
		return shardReply{}, false, err
	}
	// No resp.Body.Close: the body is read to its end here or abandoned with
	// the connection, and Close would drain an oversized one.
	rep = shardReply{status: resp.StatusCode,
		contentType: resp.Header.Get("Content-Type"), retryAfter: resp.Header.Get("Retry-After")}
	if stamp := resp.Header[dataplane.FeedHeader]; len(stamp) == 1 { // FeedHeader is in canonical form
		rep.feed, _ = dataplane.ParseFeedPos(stamp[0]) // unreadable is unstamped
	}
	if resp.ContentLength > maxReplyBytes && req == nil {
		return shardReply{}, false, errReplyTooLarge // refused on the header, before any of it is read
	}
	rep.body, err = io.ReadAll(io.LimitReader(resp.Body, maxReplyBytes+1))
	if err == nil && len(rep.body) > maxReplyBytes {
		err = errReplyTooLarge
	}
	return rep, err == nil && !resp.Close, err
}
