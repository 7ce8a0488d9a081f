package obs

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// MuxOn registers the observability endpoints on an existing mux:
// Prometheus text at /metrics, expvar-style JSON at /metrics.json, and
// the full net/http/pprof suite under /debug/pprof/. The registry is
// sampled per request, so the endpoints always reflect live values.
// Servers with their own routes (graphserve) call this to mount the
// diagnostics on their mux and port instead of spawning a second
// listener; MuxOn deliberately leaves "/" alone so the host mux keeps
// its own index.
func MuxOn(mux *http.ServeMux, reg *Registry) {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, reg.Snapshot(), "graphmaze")
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = WriteJSON(w, reg.Snapshot())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Mux builds the standalone observability HTTP handler: MuxOn's
// endpoints plus a plain-text index at "/".
func Mux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	MuxOn(mux, reg)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "graphmaze obs\n/metrics\n/metrics.json\n/debug/pprof/\n")
	})
	return mux
}

// The listener's timeouts, so that no client can hold a connection (and a
// drain) open indefinitely by going slow at any stage. readHeaderTimeout
// bounds the request headers. readTimeout bounds the whole request, body
// included: the largest body anything mounted here accepts is graphserve's
// 8 MiB /delta. writeTimeout bounds handling plus the response; it is what
// ends a connection whose client stopped reading, and it sits above the
// slowest thing served — a /debug/pprof/profile or trace of the default
// 30 s, well above any query. idleTimeout closes a keep-alive connection
// nobody is using.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 90 * time.Second
	idleTimeout       = 2 * time.Minute
)

// Server is a live HTTP listener started by Serve or ServeHandler.
type Server struct {
	srv  *http.Server
	ln   net.Listener
	done chan struct{}
}

// Serve starts the obs endpoint on addr (host:port; port 0 picks a free
// one) and returns once the listener is bound, serving in the background.
func Serve(addr string, reg *Registry) (*Server, error) {
	return ServeHandler(addr, Mux(reg))
}

// ServeHandler is Serve with a caller-supplied handler: it binds addr and
// serves h in the background. Servers that mount the obs endpoints on
// their own mux (via MuxOn) use this to keep everything on one port.
func ServeHandler(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		srv: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: readHeaderTimeout,
			ReadTimeout:       readTimeout,
			WriteTimeout:      writeTimeout,
			IdleTimeout:       idleTimeout,
		},
		ln:   ln,
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		// Serve returns http.ErrServerClosed once Shutdown or Close stops
		// the server; there is nothing useful to do with it here.
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr returns the bound listen address ("" on a nil server).
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown stops accepting connections and waits for the requests in
// flight to finish. The wait is bounded by ctx: when it ends first, the
// connections still open (a stuck handler, a client that never finished
// its headers) are closed and ctx's error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	if s == nil {
		return nil
	}
	err := s.srv.Shutdown(ctx)
	if err != nil {
		_ = s.srv.Close() // the error worth reporting is the expired wait
	}
	<-s.done
	return err
}

// Close stops the server at once and waits for the serve loop to exit.
// In-flight requests are abandoned: right for the standalone obs endpoint,
// which is diagnostics; a data-plane server drains with Shutdown.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	err := s.srv.Close()
	<-s.done
	return err
}
