// Package compressd is the compression service: the batch pipelines
// (compile→compress, decompress, run-under-limits) behind a
// long-running HTTP/JSON daemon engineered for fault tolerance first.
//
// The robustness layers, outermost first:
//
//   - admission control: a semaphore plus a bounded wait queue in
//     front of the shared worker pool; overload sheds fast 429s with
//     Retry-After hints instead of piling up goroutines (admission.go);
//   - deadline propagation: every request's context deadline folds
//     into guard.Limits via guard.FromContext, so a client timeout or
//     disconnect becomes a LimitDeadline trap inside the engine, never
//     a leaked goroutine;
//   - typed failure surface: every error funnels through the errmap
//     (errmap.go), so artifact corruption, resource traps, overload,
//     and drain each map to one stable (status, kind) pair; unmapped
//     errors are 500s that dump the flight-recorder ring;
//   - graceful drain: SIGTERM stops admission (503 + Retry-After),
//     lets in-flight requests finish inside a bounded drain deadline,
//     and on overrun cancels their contexts — trapping the engines —
//     before force-closing; the overrun dumps the flight ring;
//   - deterministic chaos: a seeded fault-injection layer (chaos.go)
//     corrupts artifacts, delays handlers, and forces traps at
//     configured rates, so CI exercises the full failure surface.
package compressd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/brisc"
	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/parallel"
	"repro/internal/telemetry"
	"repro/internal/telemetry/expose"
	"repro/internal/wire"
)

// Config tunes the service. The zero value serves with conservative
// defaults; Start fills them in.
type Config struct {
	// Workers bounds the shared compression pool (0 = one per CPU).
	Workers int
	// BaseLimits is the per-request resource ceiling. Requests may
	// tighten each limit but never exceed it. Zero fields default to
	// DefaultMaxSteps / DefaultMaxMem / DefaultMaxCallDepth.
	BaseLimits guard.Limits
	// RequestTimeout caps each request's wall clock, including queue
	// wait (0 = 10s). Clients may ask for less, never more.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies (0 = 8 MiB).
	MaxBodyBytes int64
	// MaxOutputBytes caps captured program output; beyond it output is
	// truncated, not failed (0 = 1 MiB).
	MaxOutputBytes int
	// DrainTimeout bounds graceful shutdown (0 = 5s).
	DrainTimeout time.Duration
	// Admission configures the load-shed watermarks.
	Admission AdmissionConfig
	// Chaos enables deterministic fault injection (zero = off).
	Chaos ChaosConfig
	// Rec receives the service's telemetry (nil = no recording; the
	// /metrics endpoint then serves an empty exposition).
	Rec *telemetry.Recorder
}

// Default per-request ceilings: generous for real workloads, finite so
// a hostile request can never run unbounded.
const (
	DefaultMaxSteps       = 200_000_000
	DefaultMaxMem         = 64 << 20
	DefaultMaxCallDepth   = 10_000
	DefaultRequestTimeout = 10 * time.Second
	DefaultMaxBodyBytes   = 8 << 20
	DefaultMaxOutputBytes = 1 << 20
	DefaultDrainTimeout   = 5 * time.Second
)

func (c Config) withDefaults() Config {
	if c.BaseLimits.MaxSteps <= 0 {
		c.BaseLimits.MaxSteps = DefaultMaxSteps
	}
	if c.BaseLimits.MaxMem <= 0 {
		c.BaseLimits.MaxMem = DefaultMaxMem
	}
	if c.BaseLimits.MaxCallDepth <= 0 {
		c.BaseLimits.MaxCallDepth = DefaultMaxCallDepth
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = DefaultRequestTimeout
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.MaxOutputBytes <= 0 {
		c.MaxOutputBytes = DefaultMaxOutputBytes
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = DefaultDrainTimeout
	}
	return c
}

// Server is one running service instance.
type Server struct {
	cfg   Config
	rec   *telemetry.Recorder
	pool  *parallel.Pool
	adm   *admission
	chaos *chaos

	ln  net.Listener
	srv *http.Server

	draining atomic.Bool
	// reqCtx parents every request's limit context; cancelReqs fires on
	// drain-deadline overrun, trapping whatever is still executing.
	reqCtx     context.Context
	cancelReqs context.CancelFunc
	serveDone  chan struct{}
}

// Start binds addr (":0" picks a free port) and serves in a background
// goroutine until Drain or Close.
func Start(addr string, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("compressd: %w", err)
	}
	workers := parallel.DefaultWorkers(cfg.Workers)
	s := &Server{
		cfg:       cfg,
		rec:       cfg.Rec,
		pool:      parallel.NewTraced(workers, cfg.Rec),
		adm:       newAdmission(cfg.Admission, workers, cfg.Rec),
		chaos:     newChaos(cfg.Chaos, cfg.Rec),
		ln:        ln,
		serveDone: make(chan struct{}),
	}
	s.reqCtx, s.cancelReqs = context.WithCancel(context.Background())

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/compress", s.handle("compress", s.handleCompress))
	mux.HandleFunc("/v1/decompress", s.handle("decompress", s.handleDecompress))
	mux.HandleFunc("/v1/run", s.handle("run", s.handleRun))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ready\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		s.publishGauges()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		expose.WritePrometheus(w, s.rec)
	})

	s.srv = &http.Server{Handler: mux}
	go func() {
		defer close(s.serveDone)
		s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// publishGauges refreshes the point-in-time load gauges scraped via
// /metrics.
func (s *Server) publishGauges() {
	if !s.rec.Enabled() {
		return
	}
	inFlight, queued, estMem := s.adm.Stats()
	s.rec.SetGauge("compressd.admission.in_flight", float64(inFlight))
	s.rec.SetGauge("compressd.admission.queued", float64(queued))
	s.rec.SetGauge("compressd.admission.est_mem", float64(estMem))
	st := s.pool.Stats()
	s.rec.SetGauge("compressd.pool.busy", float64(st.Busy))
	s.rec.SetGauge("compressd.pool.workers", float64(st.Workers))
}

// Drain gracefully shuts the service down:
//
//  1. stop admitting — the listener closes (late connections are
//     refused) and requests racing in on live connections get 503;
//  2. wait up to the configured drain deadline for in-flight requests;
//  3. on overrun, dump the flight ring, cancel every in-flight
//     request's limit context (engines trap as LimitDeadline and the
//     handlers answer 408), and give them a short grace;
//  4. force-close whatever is left.
//
// Drain returns nil on a clean drain and the shutdown error otherwise.
// It is idempotent enough for signal handlers: a second call just
// re-runs Shutdown on an already-stopped server.
func (s *Server) Drain() error {
	s.draining.Store(true)
	if s.rec.Enabled() {
		s.rec.Add("compressd.drain.started", 1)
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if errors.Is(err, context.DeadlineExceeded) {
		s.rec.Trip(fmt.Sprintf("compressd: drain deadline (%v) exceeded; trapping in-flight requests", s.cfg.DrainTimeout))
		if s.rec.Enabled() {
			s.rec.Add("compressd.drain.forced", 1)
		}
		s.cancelReqs()
		// Grace for the traps to surface and handlers to write their
		// 408s; bounded so a wedged handler cannot hold the process.
		grace := s.cfg.DrainTimeout / 2
		if grace > time.Second {
			grace = time.Second
		}
		gctx, gcancel := context.WithTimeout(context.Background(), grace)
		defer gcancel()
		if err2 := s.srv.Shutdown(gctx); err2 == nil {
			err = nil
		} else {
			s.srv.Close()
		}
	}
	s.cancelReqs()
	<-s.serveDone
	if err == nil && s.rec.Enabled() {
		s.rec.Add("compressd.drain.clean", 1)
	}
	return err
}

// Close is Drain for defer-style teardown in tests.
func (s *Server) Close() error { return s.Drain() }

// handle wraps an endpoint with the shared robustness layers, applied
// in order: method check, drain check, body cap, chaos latency,
// deadline propagation, admission, metrics, and the errmap.
func (s *Server) handle(endpoint string, fn func(ctx context.Context, body []byte) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if s.rec.Enabled() {
			s.rec.Add("compressd.http.requests", 1)
		}
		if r.Method != http.MethodPost {
			s.fail(w, endpoint, badRequest("method %s not allowed (use POST)", r.Method))
			return
		}
		if s.draining.Load() {
			s.fail(w, endpoint, ErrDraining)
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				err = fmt.Errorf("request body over %dB: %w", tooBig.Limit, wire.ErrTooLarge)
			}
			s.fail(w, endpoint, err)
			return
		}

		// Per-request deadline: the server ceiling, tightened by the
		// client's own timeout below, and additionally cancelled when a
		// drain overruns (reqCtx).
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		stop := context.AfterFunc(s.reqCtx, cancel)
		defer stop()

		if d := s.chaos.Latency(); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}

		release, err := s.adm.Acquire(ctx, s.estimateMem(int64(len(body))))
		if err != nil {
			s.fail(w, endpoint, err)
			return
		}
		defer release()

		resp, err := fn(ctx, body)
		if err != nil {
			s.fail(w, endpoint, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
		if s.rec.Enabled() {
			s.rec.Add("compressd.endpoint."+endpoint+".ok", 1)
			s.rec.Observe("compressd.http.duration_ms", float64(time.Since(start).Milliseconds()))
		}
	}
}

// estimateMem is the admission controller's per-request memory
// estimate: the body (decoded artifacts and IR scale with it) plus the
// engine memory ceiling a run may commit.
func (s *Server) estimateMem(bodyLen int64) int64 {
	return 8*bodyLen + int64(s.cfg.BaseLimits.MaxMem)/4
}

// fail maps err onto the HTTP surface: status and kind from the
// errmap, Retry-After hints on shed/drain, flight dump on internal
// faults, and per-endpoint failure counters (by kind, so the chaos
// soak can assert every injected fault surfaced typed).
func (s *Server) fail(w http.ResponseWriter, endpoint string, err error) {
	status, kind := Map(err)
	resp := ErrorResponse{Error: err.Error(), Kind: kind}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		ra := s.adm.RetryAfter()
		w.Header().Set("Retry-After", strconv.Itoa(int((ra+time.Second-1)/time.Second)))
		resp.RetryAfterMS = ra.Milliseconds()
	}
	if s.rec.Enabled() {
		s.rec.Add("compressd.http.errors", 1)
		s.rec.Add("compressd.endpoint."+endpoint+".err."+kind, 1)
		if status == http.StatusInternalServerError {
			s.rec.Trip("compressd: internal error on " + endpoint + ": " + err.Error())
		}
	}
	writeJSON(w, status, resp)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// ---- endpoints ----

func (s *Server) handleCompress(ctx context.Context, body []byte) (any, error) {
	var req CompressRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, badRequest("decoding request: %v", err)
	}
	if req.Source == "" {
		return nil, badRequest("empty source")
	}
	name := req.Name
	if name == "" {
		name = "req"
	}
	prog, err := core.CompileC(name, req.Source)
	if err != nil {
		return nil, compileError(err)
	}
	var artifact []byte
	format := req.Format
	if format == "" {
		format = "wire"
	}
	switch format {
	case "wire":
		artifact, err = wire.CompressTraced(prog.Module, wire.Options{Pool: s.pool}, s.rec)
	case "brisc":
		var obj *brisc.Object
		obj, err = prog.BRISC(brisc.Options{Pool: s.pool})
		if err == nil {
			artifact = obj.Bytes()
		}
	default:
		return nil, badRequest("unknown format %q (want wire or brisc)", format)
	}
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &CompressResponse{
		Format:        format,
		Artifact:      artifact,
		SourceBytes:   len(req.Source),
		ArtifactBytes: len(artifact),
		Ratio:         float64(len(artifact)) / float64(len(req.Source)),
	}, nil
}

func (s *Server) handleDecompress(ctx context.Context, body []byte) (any, error) {
	var req DecompressRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, badRequest("decoding request: %v", err)
	}
	if len(req.Artifact) == 0 {
		return nil, badRequest("empty artifact")
	}
	format := req.Format
	if format == "" {
		format = "wire"
	}
	data := s.chaos.Artifact(req.Artifact)
	switch format {
	case "wire":
		mod, err := wire.DecompressTraced(data, s.rec)
		if err != nil {
			return nil, err
		}
		resp := &DecompressResponse{Format: format, Functions: len(mod.Functions)}
		if req.DumpIR {
			resp.IR = mod.String()
		}
		return resp, nil
	case "brisc":
		obj, err := brisc.Parse(data)
		if err != nil {
			return nil, err
		}
		return &DecompressResponse{Format: format, Functions: len(obj.Funcs)}, nil
	default:
		return nil, badRequest("unknown format %q (want wire or brisc)", format)
	}
}

func (s *Server) handleRun(ctx context.Context, body []byte) (any, error) {
	var req RunRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, badRequest("decoding request: %v", err)
	}
	if (req.Source == "") == (len(req.Artifact) == 0) {
		return nil, badRequest("exactly one of source or artifact must be set")
	}

	// Resolve the program being run.
	var (
		prog *core.Program
		obj  *brisc.Object
	)
	format := req.Format
	if format == "" {
		format = "wire"
	}
	switch {
	case req.Source != "":
		name := req.Name
		if name == "" {
			name = "req"
		}
		p, err := core.CompileC(name, req.Source)
		if err != nil {
			return nil, compileError(err)
		}
		prog = p
	case format == "wire":
		p, err := core.FromWire(s.chaos.Artifact(req.Artifact))
		if err != nil {
			return nil, err
		}
		prog = p
	case format == "brisc":
		o, err := brisc.Parse(s.chaos.Artifact(req.Artifact))
		if err != nil {
			return nil, err
		}
		obj = o
	default:
		return nil, badRequest("unknown format %q (want wire or brisc)", format)
	}

	engine := req.Engine
	if engine == "" {
		if obj != nil {
			engine = "brisc"
		} else {
			engine = "vm"
		}
	}
	// brisc/jit engines need a BRISC object; build one from the program
	// when the client submitted source or a wire artifact.
	if (engine == "brisc" || engine == "jit") && obj == nil {
		o, err := prog.BRISC(brisc.Options{Pool: s.pool})
		if err != nil {
			return nil, err
		}
		obj = o
	}
	if engine == "vm" && obj != nil {
		return nil, badRequest("engine vm cannot run a brisc artifact (use brisc or jit)")
	}

	// Deadline propagation: client timeout (via ctx) folds into the
	// server's per-request ceiling, chaos may force an instant trap.
	limits := s.effectiveLimits(req.Limits)
	limits = s.chaos.Limits(limits)
	limits = guard.FromContext(ctx, limits)

	out := &cappedWriter{max: s.cfg.MaxOutputBytes}
	var (
		code int32
		err  error
	)
	switch engine {
	case "vm":
		np, nerr := prog.Native()
		if nerr != nil {
			return nil, nerr
		}
		code, err = core.RunNative(np, out, limits)
	case "brisc":
		code, err = core.RunBRISC(obj, out, limits)
	case "jit":
		code, err = core.RunJIT(obj, out, limits)
	default:
		return nil, badRequest("unknown engine %q (want vm, brisc, or jit)", engine)
	}
	if trap := guard.Report(s.rec, err); trap != nil {
		return nil, trap
	}
	if err != nil {
		return nil, err
	}
	return &RunResponse{
		ExitCode:        code,
		Output:          out.String(),
		OutputTruncated: out.truncated,
		Engine:          engine,
	}, nil
}

// effectiveLimits merges the client's requested limits under the
// server ceiling: a request can only tighten.
func (s *Server) effectiveLimits(spec LimitsSpec) guard.Limits {
	l := s.cfg.BaseLimits
	if spec.MaxSteps > 0 && spec.MaxSteps < l.MaxSteps {
		l.MaxSteps = spec.MaxSteps
	}
	if spec.MaxMem > 0 && spec.MaxMem < l.MaxMem {
		l.MaxMem = spec.MaxMem
	}
	if spec.MaxCallDepth > 0 && spec.MaxCallDepth < l.MaxCallDepth {
		l.MaxCallDepth = spec.MaxCallDepth
	}
	if spec.TimeoutMS > 0 {
		l = l.WithTimeout(time.Duration(spec.TimeoutMS) * time.Millisecond)
	}
	return l
}

// cappedWriter captures program output up to max bytes; overflow is
// dropped (and flagged), never an error — a chatty program under a
// step limit should finish, not fail on its own prints.
type cappedWriter struct {
	buf       bytes.Buffer
	max       int
	truncated bool
}

func (w *cappedWriter) Write(p []byte) (int, error) {
	if room := w.max - w.buf.Len(); room < len(p) {
		w.truncated = true
		if room > 0 {
			w.buf.Write(p[:room])
		}
		return len(p), nil
	}
	return w.buf.Write(p)
}

func (w *cappedWriter) String() string { return w.buf.String() }
