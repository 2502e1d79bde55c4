package binproto

import (
	"bufio"
	"bytes"
	"net"
	"testing"
	"time"

	"scaddar/internal/frame"
)

// FuzzBinProto drives the server's full per-connection path with arbitrary
// post-handshake bytes: framing, CRC validation, opcode dispatch, and body
// decoding. The server must never panic and must never write a structurally
// invalid frame back. Correctly-framed garbage payloads are also re-framed
// with a valid CRC and replayed, so the fuzzer reaches the per-opcode
// decoders instead of dying at the checksum.
func FuzzBinProto(f *testing.F) {
	f.Add(le.AppendUint32(le.AppendUint32(appendHeader(nil, OpLocate, 1), 0), 0))
	f.Add(le.AppendUint32(appendHeader(nil, OpLocateBatch, 2), 0))
	batch := le.AppendUint32(appendHeader(nil, OpLocateBatch, 3), 2)
	batch = le.AppendUint32(le.AppendUint32(batch, 0), 0)
	batch = le.AppendUint32(le.AppendUint32(batch, 1), 5)
	f.Add(batch)
	f.Add(appendHeader(nil, OpEpoch, 4))
	f.Add(appendHeader(nil, OpPing, 5))
	f.Add(appendHeader(nil, OpDrain, 6))
	f.Add(appendHeader(nil, 0xEE, 7))
	f.Add([]byte{0x00})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	b := newTestBackend(f, 4, 2, 50)
	srv, err := NewServer(ServerConfig{Snapshot: b.snap.Load})
	if err != nil {
		f.Fatal(err)
	}
	srv.writeTimeout, srv.idleTimeout = time.Second, time.Second

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > MaxFrameLen {
			return
		}
		// Pass 1: the raw bytes as a hostile stream (framing usually fails
		// CRC; exercises the drop path).
		// Pass 2: the bytes framed as a valid payload (exercises dispatch
		// and body decoders).
		streams := [][]byte{append([]byte(nil), data...)}
		if len(data) > 0 {
			streams = append(streams, frame.Finish(append(frame.Begin(nil), data...), 0))
		}
		for _, stream := range streams {
			client, server := net.Pipe()
			done := make(chan struct{})
			go func() {
				defer close(done)
				srv.ServeConn(server)
			}()
			client.SetDeadline(time.Now().Add(5 * time.Second))
			writeHandshake(client, Version)
			// Drain whatever the server answers and validate the framing of
			// every response it produces; net.Pipe is unbuffered, so this
			// must run concurrently with the stream write below.
			drained := make(chan struct{})
			go func() {
				defer close(drained)
				if _, err := readHandshake(client); err != nil {
					return
				}
				br := bufio.NewReader(client)
				var buf []byte
				for {
					payload, err := frame.Read(br, &buf, MaxFrameLen)
					if err != nil {
						return
					}
					cur := frame.Cursor{Buf: payload}
					cur.U8("opcode")
					cur.U32("correlation ID")
					if !cur.OK() {
						panic("server wrote a frame shorter than opcode+corr")
					}
				}
			}()
			client.Write(stream)
			client.Close()
			<-done
			<-drained
		}
	})
}
