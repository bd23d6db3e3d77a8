// Package ops is the operator-facing HTTP surface shared by qindbd and
// embedding programs: metrics exposition (text, JSON, Prometheus),
// the slow-op log, a liveness probe, and —
// behind a switch — the runtime profiler. One mux, one graceful server,
// so every binary exposes the same endpoints the docs describe:
//
//	/metrics             text dump; ?format=json | ?format=prom (SLO
//	                     good/bad counters and runtime.* gauges ride
//	                     along: a scraper rates them)
//	/debug/slowlog       slow operations, oldest first; ?n=<count> and
//	                     ?op=<name> filter, ?format=json
//	/debug/attrib        sampled per-opcode resource attribution, sorted
//	                     by alloc bytes/op; ?format=json
//	/healthz             200 while the process is up
//	/debug/pprof/*       net/http/pprof (heap|allocs|goroutine|profile;
//	                     ?seconds=N makes heap/allocs a windowed delta),
//	                     only when EnablePprof is set
package ops

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"

	"directload/internal/metrics"
)

// Config wires the endpoints to their data sources. Nil fields disable
// the corresponding endpoint gracefully (empty output or 404, never a
// panic).
type Config struct {
	// Registry backs /metrics.
	Registry *metrics.Registry
	// SlowLog backs /debug/slowlog.
	SlowLog *metrics.SlowLog
	// Attrib, when set, backs /debug/attrib with the backend's sampled
	// per-opcode resource table (server.Backend.Attribution). Unset
	// returns 404.
	Attrib func() metrics.AttribSnapshot
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiling endpoints can stall a loaded process and
	// should be an explicit operator decision.
	EnablePprof bool
}

// NewMux builds the operator mux for cfg.
func NewMux(cfg Config) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("format") {
		case "json":
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(cfg.Registry)
		case "prom":
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			cfg.Registry.WritePrometheus(w)
		default:
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			cfg.Registry.WriteTo(w)
		}
	})
	mux.HandleFunc("/debug/slowlog", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		n := 0
		if nStr := q.Get("n"); nStr != "" {
			v, err := strconv.Atoi(nStr)
			if err != nil || v < 0 {
				http.Error(w, "bad n (want non-negative integer)", http.StatusBadRequest)
				return
			}
			n = v
		}
		entries := cfg.SlowLog.FilterEntries(n, q.Get("op"))
		if q.Get("format") == "json" {
			if entries == nil {
				entries = []metrics.SlowEntry{}
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(entries)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		metrics.WriteSlowEntries(w, entries)
	})
	mux.HandleFunc("/debug/attrib", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Attrib == nil {
			http.Error(w, "attribution not enabled (start with -attr-sample > 0)", http.StatusNotFound)
			return
		}
		snap := cfg.Attrib()
		if r.URL.Query().Get("format") == "json" {
			if snap.Entries == nil {
				snap.Entries = []metrics.AttribEntry{}
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(snap)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if snap.SampleEvery == 0 {
			fmt.Fprintln(w, "attribution disabled")
			return
		}
		fmt.Fprintf(w, "resource attribution, sampling 1/%d requests\n", snap.SampleEvery)
		fmt.Fprintf(w, "%-10s %10s %16s %14s %12s %12s\n",
			"op", "samples", "alloc_bytes/op", "allocs/op", "cpu_us/op", "wall_us/op")
		for _, e := range snap.Entries {
			fmt.Fprintf(w, "%-10s %10d %16.0f %14.1f %12.1f %12.1f\n",
				e.Op, e.Samples, e.AllocBytesPerOp, e.AllocsPerOp, e.CPUUsPerOp, e.WallUsPerOp)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	if cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// Server is a listening operator HTTP server with graceful shutdown.
type Server struct {
	srv *http.Server
	ln  net.Listener

	mu      sync.Mutex
	serveCh chan error // buffered; Serve's outcome for Shutdown to read
}

// Listen binds addr (":0" for ephemeral) and returns a server ready to
// Serve. Binding eagerly — rather than inside Serve — lets callers
// print the resolved address before requests arrive.
func Listen(addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Server{
		srv:     &http.Server{Handler: NewMux(cfg)},
		ln:      ln,
		serveCh: make(chan error, 1),
	}, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Serve blocks serving requests until Shutdown (returning nil) or a
// listener failure (returning it). Run it on its own goroutine.
func (s *Server) Serve() error {
	err := s.srv.Serve(s.ln)
	if err == http.ErrServerClosed {
		err = nil
	}
	s.serveCh <- err
	return err
}

// Shutdown stops the server gracefully: no new connections, in-flight
// requests run to completion, bounded by ctx's deadline. It returns
// ctx's error if the deadline expired first, or Serve's listener error
// if the serve loop had already failed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.srv.Shutdown(ctx)
	select {
	case serr := <-s.serveCh:
		if err == nil {
			err = serr
		}
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}
	return err
}
