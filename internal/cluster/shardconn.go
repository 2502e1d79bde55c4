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
	"time"
)

// The shard-call primitive: every request the router sends a shard is one
// (*shard).call over that shard's pool of persistent HTTP/1.1 connections,
// written and read on the calling goroutine. ARCHITECTURE.md ("One
// shard-call primitive") states the contract — deadline, retry, size cap,
// who closes what. This is the seam where a binary shard transport
// (ROADMAP 3c) swaps in.

const (
	// maxReplyBytes caps a buffered shard reply body.
	maxReplyBytes = 8 << 20
	// maxIdleConns bounds the idle connections kept per shard; a caller
	// beyond it still dials, and its connection is closed on return.
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

// shardReply is one buffered shard response.
type shardReply struct {
	status      int
	contentType string
	retryAfter  string
	body        []byte
}

// shardConn is one persistent connection to a shard.
type shardConn struct {
	nc     net.Conn
	br     *bufio.Reader
	req    []byte // request scratch, reused across exchanges
	reused bool   // has carried a complete exchange before
	poison func() // expires the deadline; bound once for context.AfterFunc
}

// call performs one request against the shard: deadline min(ctx deadline,
// now+ShardTimeout); a GET whose pooled connection turns out dead is
// replayed once on a fresh dial, nothing else is ever replayed.
func (s *shard) call(ctx context.Context, method, path string, body []byte) (shardReply, error) {
	for i := 0; i < len(path); i++ {
		if path[i] <= ' ' || path[i] == 0x7f {
			return shardReply{}, fmt.Errorf("cluster: request path %q has a control byte or space", path)
		}
	}
	if err := ctx.Err(); err != nil {
		return shardReply{}, err
	}
	deadline := time.Now().Add(s.timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	s.busy.Add(1)
	defer s.busy.Add(-1)
	var c *shardConn
	select {
	case c = <-s.idle:
	default:
	}
	for {
		if c == nil {
			d := net.Dialer{Deadline: deadline}
			nc, err := d.DialContext(ctx, "tcp", s.addr)
			if err != nil {
				return shardReply{}, err
			}
			s.dials.Inc()
			c = &shardConn{nc: nc, br: bufio.NewReaderSize(nc, connBufBytes), req: make([]byte, 0, connBufBytes)}
			c.poison = func() { _ = nc.SetDeadline(time.Unix(1, 0)) }
		}
		rep, keep, stale, err := c.exchange(ctx, deadline, s, method, path, body)
		if keep {
			s.release(c)
		} else {
			_ = c.nc.Close()
		}
		if err == nil {
			return rep, nil
		}
		if stale {
			// The shard restarted under the pool: the idle siblings are as
			// dead as this connection was.
			s.closeIdle()
			if method == http.MethodGet {
				s.connRetries.Inc()
				c = nil
				continue
			}
			return shardReply{}, fmt.Errorf("%w: %v", errStaleConn, err)
		}
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
		}
		return shardReply{}, err
	}
}

// exchange writes one request and reads its reply. keep reports whether the
// connection may carry another exchange; stale, that a reused connection
// failed before any reply byte arrived for a reason other than the deadline.
func (c *shardConn) exchange(ctx context.Context, deadline time.Time, s *shard,
	method, path string, body []byte) (rep shardReply, keep, stale bool, err error) {
	_ = c.nc.SetDeadline(deadline) // fails only on a closed connection, which the write reports
	stop := context.AfterFunc(ctx, c.poison)

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
		stop()
		return shardReply{}, false, c.reused && !errors.Is(err, os.ErrDeadlineExceeded), err
	}
	rep, keep, err = readReply(c.br, method)
	// A poison already under way can land at any later moment, so the
	// connection is not reusable even though this reply is complete.
	keep = stop() && keep && err == nil && c.br.Buffered() == 0
	c.reused = true
	return rep, keep, false, err
}

// release returns a reusable connection to the pool, or closes it when the
// pool is full or closed.
func (s *shard) release(c *shardConn) {
	if !s.poolClosed.Load() {
		select {
		case s.idle <- c:
			if s.poolClosed.Load() { // closePool may have drained before the send
				s.closeIdle()
			}
			return
		default:
		}
	}
	_ = c.nc.Close()
}

// closeIdle closes every idle connection.
func (s *shard) closeIdle() {
	for {
		select {
		case c := <-s.idle:
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
	if resp.ContentLength > maxReplyBytes && req == nil {
		return shardReply{}, false, errReplyTooLarge // refused on the header, before any of it is read
	}
	rep.body, err = io.ReadAll(io.LimitReader(resp.Body, maxReplyBytes+1))
	if err == nil && len(rep.body) > maxReplyBytes {
		err = errReplyTooLarge
	}
	return rep, err == nil && !resp.Close, err
}
