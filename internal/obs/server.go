package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync/atomic"
	"time"

	"decoydb/internal/relay"
	"decoydb/internal/stream"
)

// Server is the admin plane every binary mounts behind -admin: metrics,
// health, status, profiling, and — where the owning process wires them —
// session traces and live store queries. It binds a plain TCP listener
// (port 0 friendly for tests) and shuts down with the process; there is
// no TLS or auth, so the address should stay on loopback or a
// management network, like any other pprof port.
type ServerOptions struct {
	// Registry backs /metrics and /statusz. Required.
	Registry *Registry
	// Traces, when set, serves /traces.
	Traces *TraceRing
	// Stream, when set, serves /alerts and /clusters from the online
	// analyzer and registers its scrape-time source.
	Stream *stream.Analyzer
	// Query, when set, serves /query (the collector wires this) — a
	// *QueryHandler for one collector's store, or a *FanIn merging the
	// whole tier.
	Query http.Handler
	// ReloadForward, when set, serves POST /reload/forward — the admin
	// half of live tier re-ranking. The handler parses addrs=a|b (comma
	// or pipe separated) and hands the list to this hook, in practice
	// relay.(*ForwardSink).SetEndpoints, so an operator can point a
	// running farm at a changed collector tier without a restart.
	ReloadForward func(addrs []string) error
	// Logf logs server lifecycle lines; nil discards.
	Logf func(format string, args ...any)
}

// Server serves the admin endpoints. Create with NewServer, bind with
// Start, stop with Close.
type Server struct {
	opts    ServerOptions
	mux     *http.ServeMux
	srv     *http.Server
	ln      net.Listener
	started time.Time
	scrapes atomic.Uint64
}

// NewServer builds the handler tree. The server registers itself in the
// registry as source "admin" (scrape count, uptime, goroutines).
func NewServer(opts ServerOptions) *Server {
	if opts.Registry == nil {
		opts.Registry = NewRegistry()
	}
	s := &Server{opts: opts, mux: http.NewServeMux(), started: time.Now()}
	opts.Registry.Register(adminSource{s})
	if opts.Traces != nil {
		opts.Registry.Register(opts.Traces)
	}
	if opts.Stream != nil {
		opts.Registry.Register(StreamSource(opts.Stream))
	}

	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/statusz", s.handleStatusz)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if opts.Traces != nil {
		s.mux.HandleFunc("/traces", s.handleTraces)
	}
	if opts.Stream != nil {
		s.mux.HandleFunc("/alerts", s.handleAlerts)
		s.mux.HandleFunc("/clusters", s.handleClusters)
	}
	if opts.Query != nil {
		s.mux.Handle("/query", opts.Query)
	}
	if opts.ReloadForward != nil {
		s.mux.HandleFunc("/reload/forward", s.handleReloadForward)
	}
	s.mux.HandleFunc("/", s.handleIndex)
	return s
}

// Handler exposes the route tree (httptest and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (host:port; port 0 picks a free one) and serves
// in the background until Close. It returns the bound address.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := s.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			s.logf("obs: serve: %v", err)
		}
	}()
	s.logf("obs: admin plane on http://%s (/metrics /healthz /statusz /debug/pprof)", ln.Addr())
	return ln.Addr(), nil
}

// Close stops the listener and in-flight handlers.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.scrapes.Add(1)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.opts.Registry.WriteMetrics(w); err != nil {
		s.logf("obs: /metrics: %v", err)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{
		"status": "ok",
		"uptime": time.Since(s.started).Round(time.Second).String(),
	})
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	status := s.opts.Registry.Status()
	status["now"] = time.Now().UTC()
	writeJSON(w, status)
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	limit, err := intParam(r, "limit", 100)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	t := s.opts.Traces
	writeJSON(w, map[string]any{
		"stats":  t.Stats(),
		"active": t.Active(limit),
		"recent": t.Recent(limit),
	})
}

// handleReloadForward re-ranks the forwarder onto a new collector set.
// POST only: the call closes the live connection and rebuilds endpoint
// state, which is not something a stray GET should trigger.
func (s *Server) handleReloadForward(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if err := r.ParseForm(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	addrs, err := relay.ParseAddrs(r.Form.Get("addrs"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(addrs) == 0 {
		http.Error(w, "addrs=host:port|host:port required", http.StatusBadRequest)
		return
	}
	if err := s.opts.ReloadForward(addrs); err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	s.logf("obs: /reload/forward: endpoints now %v", addrs)
	writeJSON(w, map[string]any{"ok": true, "addrs": addrs})
}

// handleIndex lists the mounted endpoints — the page an operator lands
// on when they curl the bare admin port.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	paths := []string{"/metrics", "/healthz", "/statusz", "/debug/pprof/"}
	if s.opts.Traces != nil {
		paths = append(paths, "/traces")
	}
	if s.opts.Stream != nil {
		paths = append(paths, "/alerts", "/clusters")
	}
	if s.opts.Query != nil {
		paths = append(paths, "/query")
	}
	if s.opts.ReloadForward != nil {
		paths = append(paths, "/reload/forward (POST)")
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "decoydb admin plane")
	for _, p := range paths {
		fmt.Fprintln(w, "  "+p)
	}
}

// adminSource exposes the server's own counters.
type adminSource struct{ s *Server }

func (a adminSource) Name() string { return "admin" }

func (a adminSource) Status() any {
	return map[string]any{
		"uptime":     time.Since(a.s.started).Round(time.Second).String(),
		"scrapes":    a.s.scrapes.Load(),
		"goroutines": runtime.NumGoroutine(),
	}
}

func (a adminSource) Collect(e *Emitter) {
	e.Counter("decoydb_admin_scrapes_total", "Scrapes of /metrics.", float64(a.s.scrapes.Load()))
	e.Gauge("decoydb_admin_uptime_seconds", "Seconds since the admin server was created.", time.Since(a.s.started).Seconds())
	e.Gauge("decoydb_admin_goroutines", "Live goroutines in the process.", float64(runtime.NumGoroutine()))
}
