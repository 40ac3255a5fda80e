// Package expose is the live half of the observability plane: an
// embedded debug HTTP server that serves a running process's telemetry
// (Prometheus text exposition, JSON snapshot, span summary, flight
// recorder, pprof), plus the shared command-line flag plumbing every
// tool uses to switch it on.
//
// The package sits one layer above telemetry so the core recorder
// stays free of net/http; it may import telemetry and parallel, never
// the reverse.
package expose

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// DefaultDrainTimeout bounds how long Close waits for in-flight debug
// requests before force-closing their connections.
const DefaultDrainTimeout = 2 * time.Second

// Server is the embedded debug endpoint behind -debug-addr. It serves
// live views of one recorder and the stdlib pprof handlers.
type Server struct {
	ln  net.Listener
	srv *http.Server
	rec *telemetry.Recorder

	// active counts handlers still running, so a forced drain can wait
	// for them: a CPU-profile scrape holds the process's one profiler
	// until its handler returns.
	active atomic.Int64
}

// StartServer binds addr (host:port; ":0" picks a free port) and
// serves the debug endpoints for rec in a background goroutine.
func StartServer(addr string, rec *telemetry.Recorder) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("expose: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "repro debug server\n\n")
		fmt.Fprintf(w, "  /metrics       Prometheus text exposition\n")
		fmt.Fprintf(w, "  /snapshot      aggregate state as JSON\n")
		fmt.Fprintf(w, "  /spans         human-readable span/metric summary\n")
		fmt.Fprintf(w, "  /flight        flight-recorder ring dump\n")
		fmt.Fprintf(w, "  /buildinfo     binary identity (Go version, module, VCS revision)\n")
		fmt.Fprintf(w, "  /healthz       liveness probe\n")
		fmt.Fprintf(w, "  /debug/pprof/  Go runtime profiles\n")
	})
	mux.HandleFunc("/buildinfo", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(telemetry.GetBuildInfo())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, rec)
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		telemetry.WriteJSON(w, rec)
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		telemetry.WriteSummary(w, rec)
	})
	mux.HandleFunc("/flight", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		rec.DumpFlight(w, "debug endpoint")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s := &Server{ln: ln, rec: rec}
	s.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		s.active.Add(1)
		defer s.active.Add(-1)
		mux.ServeHTTP(w, req)
	})}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close shuts the server down gracefully, waiting up to
// DefaultDrainTimeout for in-flight requests.
func (s *Server) Close() error { return s.Drain(DefaultDrainTimeout) }

// Drain gracefully shuts the server down: the listener closes (late
// scrapes get connection-refused), in-flight requests get up to
// timeout to finish, and on overrun the flight-recorder ring is
// dumped — a scrape that outlives the drain window is exactly the
// kind of stuck-process evidence the ring exists to preserve — before
// the remaining connections are force-closed and their handlers, which
// see their request contexts canceled, are given up to another timeout
// to return. The overrun still
// returns context.DeadlineExceeded so callers can distinguish a clean
// drain from a forced one.
func (s *Server) Drain(timeout time.Duration) error {
	if s == nil {
		return nil
	}
	if timeout <= 0 {
		timeout = DefaultDrainTimeout
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if errors.Is(err, context.DeadlineExceeded) {
		s.rec.Trip(fmt.Sprintf("expose: drain deadline (%v) exceeded; force-closing debug connections", timeout))
		s.srv.Close()
		// Closing a connection cancels its request's context, which
		// ends the pprof handlers' waits; give the handlers up to
		// another timeout to return, so none holds the CPU profiler
		// past the drain.
		for end := time.Now().Add(timeout); s.active.Load() > 0 && time.Now().Before(end); {
			time.Sleep(time.Millisecond)
		}
	}
	return err
}

// WritePrometheus renders the recorder's aggregate state in the
// Prometheus text exposition format (version 0.0.4): counters as
// <name>_total, gauges as-is, histograms as summaries with p50/p90/p99
// quantile labels plus _sum and _count. Metric names are sanitized to
// the [a-zA-Z0-9_:] charset Prometheus requires.
func WritePrometheus(w io.Writer, rec *telemetry.Recorder) {
	if rec == nil {
		return
	}
	counters := rec.Counters()
	for _, k := range sortedKeys(counters) {
		name := promName(k) + "_total"
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, counters[k])
	}
	gauges := rec.Gauges()
	for _, k := range sortedKeys(gauges) {
		name := promName(k)
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", name, name, promFloat(gauges[k]))
	}
	hists := rec.Histograms()
	hkeys := make([]string, 0, len(hists))
	for k := range hists {
		hkeys = append(hkeys, k)
	}
	sort.Strings(hkeys)
	for _, k := range hkeys {
		h := hists[k]
		name := promName(k)
		fmt.Fprintf(w, "# TYPE %s summary\n", name)
		fmt.Fprintf(w, "%s{quantile=\"0.5\"} %s\n", name, promFloat(h.P50))
		fmt.Fprintf(w, "%s{quantile=\"0.9\"} %s\n", name, promFloat(h.P90))
		fmt.Fprintf(w, "%s{quantile=\"0.99\"} %s\n", name, promFloat(h.P99))
		fmt.Fprintf(w, "%s_sum %s\n", name, promFloat(h.Sum))
		fmt.Fprintf(w, "%s_count %d\n", name, h.Count)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// promName maps a dotted telemetry key to a legal Prometheus metric
// name: dots become underscores, anything outside [a-zA-Z0-9_] too,
// and a leading digit gets an underscore prefix.
func promName(key string) string {
	var b strings.Builder
	b.Grow(len(key))
	for i, c := range key {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
			b.WriteRune(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func promFloat(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
