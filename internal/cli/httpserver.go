package cli

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"
)

// httpServer is what serve, cluster and follow listen with: an http.Server
// that counts the requests inside its handler, so shutdownHTTP can tell a
// request cut short from a connection that never carried one.
type httpServer struct {
	http.Server
	inFlight atomic.Int64
}

// startHTTP serves h on ln in the background; the channel receives Serve's
// error when it returns.
func startHTTP(ln net.Listener, h http.Handler) (*httpServer, <-chan error) {
	hs := &httpServer{}
	hs.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hs.inFlight.Add(1)
		defer hs.inFlight.Add(-1)
		h.ServeHTTP(w, r)
	})
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	return hs, serveErr
}

// shutdownHTTP stops hs: Shutdown for up to budget, then Close on whatever
// is left. net/http lets a connection that has sent nothing sit for 5 s
// before Shutdown counts it idle — a keep-alive socket a client dialed and
// never used — so outliving the budget is an error only when a request was
// still inside the handler.
func shutdownHTTP(hs *httpServer, budget time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	err := hs.Shutdown(ctx)
	if err == nil {
		return nil
	}
	n := hs.inFlight.Load()
	_ = hs.Close() // the listeners are closed already; this drops the connections
	if n == 0 {
		return nil
	}
	return fmt.Errorf("http shutdown: %d requests still in flight after %s: %w", n, budget, err)
}
