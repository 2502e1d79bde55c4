package gateway

import (
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"scaddar/internal/binproto"
)

// This file wires the binary lookup protocol (internal/binproto,
// docs/PROTOCOL.md) onto a gateway. The gateway's one binary server needs
// exactly two things from it — the atomic locator snapshot and the draining
// flag — so the same placement answers flow out of every socket: an HTTP
// read and a binary lookup racing the same reorganization see the same
// epoch-tagged snapshot pointer. Connections reach it two ways: a dedicated
// listener (ServeBin, for batch clients) and an upgrade of the HTTP port's
// own connections (handleBinUpgrade, what a cluster router's reads use).

// ServeBin has the gateway's binary server accept on the listener, in a
// background goroutine. The bin_* cells sit beside the gateway_* ones in the
// gateway's registry, the bound address is advertised as binAddr in
// GET /v1/status so clients can discover the fast read path, and the
// listener closes when the gateway does.
func (g *Gateway) ServeBin(ln net.Listener) (*binproto.Server, error) {
	go func() {
		if err := g.bin.Serve(ln); err != nil {
			g.logf("gateway: binary listener: %v", err)
		}
	}()
	g.binAddr.Store(ln.Addr().String())
	return g.bin, nil
}

// handleBinUpgrade turns the request's connection into a binary lookup
// connection (docs/PROTOCOL.md §1.1) and serves it on this goroutine. The
// gateway's Close ends it — http.Server no longer knows it — and a draining
// gateway keeps answering on it, as it keeps answering HTTP reads.
func (g *Gateway) handleBinUpgrade(w http.ResponseWriter, r *http.Request) {
	hj, ok := w.(http.Hijacker)
	if !ok || !strings.EqualFold(r.Header.Get("Upgrade"), binproto.UpgradeToken) ||
		!strings.EqualFold(r.Header.Get("Connection"), "Upgrade") {
		w.Header().Set("Upgrade", binproto.UpgradeToken)
		writeJSON(w, http.StatusUpgradeRequired, map[string]string{"error": "gateway: this route only upgrades to " + binproto.UpgradeToken})
		return
	}
	nc, rw, err := hj.Hijack()
	if err != nil {
		g.logf("gateway: binary upgrade: %v", err)
		return
	}
	_ = nc.SetDeadline(time.Time{}) // whatever http.Server armed; a dead connection fails the write below
	// The client waits for the 101: bytes already behind its request are a
	// protocol error, not a handshake to guess the start of.
	if rw.Reader.Buffered() > 0 {
		nc.Close()
	} else if _, err := io.WriteString(nc, binproto.UpgradeReply); err != nil {
		nc.Close()
	} else {
		g.bin.ServeConn(nc)
	}
}
