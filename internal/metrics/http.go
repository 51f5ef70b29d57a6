// HTTP surface: a live /metrics endpoint in Prometheus text format, a
// /metrics.json snapshot, and the net/http/pprof profile handlers —
// the scrape-and-profile loop every production power-capping service
// in the related literature treats as table stakes.
package metrics

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Handler serves the registry in Prometheus text exposition format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WriteProm(w); err != nil {
			// The connection died mid-write; nothing useful to do.
			return
		}
	})
}

// JSONHandler serves the registry's JSON snapshot.
func (r *Registry) JSONHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := r.WriteJSON(w); err != nil {
			return
		}
	})
}

// NewMux builds the observability mux: /metrics (Prometheus text),
// /metrics.json (snapshot), and /debug/pprof/* (live Go profiles).
func (r *Registry) NewMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	mux.Handle("/metrics.json", r.JSONHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Timeouts for the observability listener. ReadHeaderTimeout is the
// slowloris guard (a client that trickles header bytes holds a
// connection, not the server); IdleTimeout reaps keep-alive
// connections between scrapes. Read/write timeouts stay unset because
// /debug/pprof/profile legitimately streams for tens of seconds.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	shutdownTimeout   = 5 * time.Second
)

// ListenAndServe starts a hardened HTTP listener on addr serving h.
// It returns the bound address (useful with ":0") and a close function
// that drains in-flight requests via Shutdown under a bounded context
// — falling back to a hard Close if draining exceeds the bound — and
// reports any shutdown error instead of swallowing it.
func ListenAndServe(addr string, h http.Handler) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	go func() {
		// ErrServerClosed (or a post-close accept error) is the normal
		// end of life for this listener.
		_ = srv.Serve(ln)
	}()
	stop := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
		defer cancel()
		err := srv.Shutdown(ctx)
		if errors.Is(err, context.DeadlineExceeded) {
			// A request outlived the drain budget; cut it off.
			return srv.Close()
		}
		return err
	}
	return ln.Addr().String(), stop, nil
}

// Serve starts an HTTP listener on addr exposing the registry's mux.
// See ListenAndServe for the timeout and shutdown contract.
func (r *Registry) Serve(addr string) (string, func() error, error) {
	return ListenAndServe(addr, r.NewMux())
}

// Serve starts the Default registry's observability listener.
func Serve(addr string) (string, func() error, error) { return Default.Serve(addr) }
