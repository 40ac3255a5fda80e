package expose

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// DefaultFlightEvents is the flight-recorder ring size Start arms on
// every recorder it creates.
const DefaultFlightEvents = 256

// Options is the process observability configuration: one field per
// shared flag, plus the two knobs no flag sets.
type Options struct {
	Trace      string        // JSONL trace path ("" = off)
	TraceOut   string        // Chrome trace_event JSON path ("" = off); load in Perfetto
	Metrics    bool          // print the summary on Close
	CPUProfile string        // pprof CPU profile path ("" = off)
	MemProfile string        // pprof heap profile path ("" = off)
	DebugAddr  string        // debug HTTP server address ("" = off)
	Sample     time.Duration // runtime sampler interval (0 = 1s when DebugAddr set, else off; < 0 is an error)

	NeedRecorder bool      // force a live Recorder even when no flag asks for one (compressd's /metrics)
	SummaryTo    io.Writer // summary, debug banner and flight dumps (nil = os.Stderr); tests swap in a buffer
}

// Flags is the shared observability flag set every command-line tool
// registers. Each flag writes its field of the embedded Options, so
// after parsing Start needs no copying.
type Flags struct {
	Options
}

// AddFlags registers the shared observability flags on fs and returns
// the handle to Start them after parsing.
func AddFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Trace, "trace", "", "write a JSONL telemetry trace to `file`")
	fs.StringVar(&f.TraceOut, "trace-out", "", "write a Chrome trace_event JSON trace to `file` (load in Perfetto)")
	fs.BoolVar(&f.Metrics, "metrics", false, "print a telemetry summary to stderr on exit")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to `file`")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to `file`")
	fs.StringVar(&f.DebugAddr, "debug-addr", "", "serve live debug endpoints (/metrics, /snapshot, /spans, /flight, /debug/pprof) on `host:port`")
	fs.DurationVar(&f.Sample, "sample", 0, "runtime sampler interval; a positive value enables the sampler on its own, 0 means off unless -debug-addr is set (which defaults it to 1s); negative is rejected")
	return f
}

// Start activates everything the parsed flags requested.
func (f *Flags) Start() (*Tool, error) { return Start(f.Options) }

// Tool is the per-process observability state: the recorder, its
// trace file and profiles, and the live plane (debug server, runtime
// sampler). Rec is nil when nothing requested a recorder, so passing
// it straight into the instrumented libraries keeps the disabled path
// free.
type Tool struct {
	Rec    *telemetry.Recorder
	Server *Server

	opts        Options
	traceFile   *os.File
	cpuFile     *os.File
	stopSampler func()
	closed      bool
}

// Start activates the requested observability features. Close must run
// before process exit (it is idempotent); Fail is the fatal-path
// variant that also trips the flight recorder.
func Start(opts Options) (*Tool, error) {
	if opts.Sample < 0 {
		return nil, fmt.Errorf("expose: -sample must be >= 0, got %v", opts.Sample)
	}
	if opts.DebugAddr != "" && opts.Sample == 0 {
		opts.Sample = time.Second
	}
	if opts.SummaryTo == nil {
		opts.SummaryTo = os.Stderr
	}
	t := &Tool{opts: opts}
	if opts.Trace != "" || opts.TraceOut != "" || opts.Metrics || opts.NeedRecorder || opts.Sample > 0 {
		t.Rec = telemetry.New()
		t.Rec.EnableFlight(DefaultFlightEvents)
		t.Rec.SetFlightOutput(opts.SummaryTo)
	}
	if err := t.start(); err != nil {
		// Release what did start, but write no outputs for a run that
		// never began.
		t.opts = Options{}
		t.Close()
		return nil, err
	}
	return t, nil
}

func (t *Tool) start() error {
	if t.opts.Trace != "" {
		f, err := os.Create(t.opts.Trace)
		if err != nil {
			return fmt.Errorf("telemetry: trace: %w", err)
		}
		t.traceFile = f
		sink := telemetry.NewJSONL(f).Anchor(t.Rec)
		// First line identifies the producing binary and the run's trace
		// ID, so recorded traces are self-describing.
		sink.Header(t.Rec.TraceID(), telemetry.GetBuildInfo())
		t.Rec.AttachSink(sink)
	}
	if t.opts.CPUProfile != "" {
		f, err := os.Create(t.opts.CPUProfile)
		if err != nil {
			return fmt.Errorf("telemetry: cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("telemetry: cpuprofile: %w", err)
		}
		t.cpuFile = f
	}
	if t.opts.DebugAddr != "" {
		srv, err := StartServer(t.opts.DebugAddr, t.Rec)
		if err != nil {
			return err
		}
		t.Server = srv
		fmt.Fprintf(t.opts.SummaryTo, "debug: serving http://%s/ (metrics, snapshot, spans, flight, debug/pprof)\n", srv.Addr())
	}
	if t.opts.Sample > 0 {
		t.stopSampler = telemetry.StartSampler(t.Rec, t.opts.Sample,
			telemetry.Probe{Name: "parallel.pool.in_flight", Fn: func() float64 {
				return float64(parallel.InFlight())
			}})
	}
	return nil
}

// Close stops the sampler and the debug server, stops the CPU profile,
// writes the heap profile, flushes the trace, writes the Chrome trace,
// and prints the summary when requested. It is idempotent and
// nil-safe: a fatal-path flush racing a deferred one runs the teardown
// once and returns nil afterwards.
func (t *Tool) Close() error {
	if t == nil || t.closed {
		return nil
	}
	t.closed = true
	var first error
	keep := func(err error) {
		if first == nil {
			first = err
		}
	}
	if t.stopSampler != nil {
		t.stopSampler()
	}
	if t.Server != nil {
		keep(t.Server.Close())
	}
	if t.cpuFile != nil {
		pprof.StopCPUProfile()
		keep(t.cpuFile.Close())
	}
	if t.opts.MemProfile != "" {
		keep(writeFile("memprofile", t.opts.MemProfile, func(w io.Writer) error {
			runtime.GC()
			return pprof.WriteHeapProfile(w)
		}))
	}
	keep(t.Rec.Close())
	if t.traceFile != nil {
		keep(t.traceFile.Close())
	}
	if t.Rec != nil {
		if t.opts.TraceOut != "" {
			keep(writeFile("trace-out", t.opts.TraceOut, func(w io.Writer) error {
				return telemetry.WriteTraceEvents(w, t.Rec)
			}))
		}
		if t.opts.Metrics {
			telemetry.WriteSummary(t.opts.SummaryTo, t.Rec)
		}
	}
	return first
}

// writeFile creates path and fills it with write, naming the flag in
// any error.
func writeFile(name, path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("telemetry: %s: %w", name, err)
	}
	return nil
}

// Fail is the CLI fatal path: it prints "<tool>: <err>" on stderr,
// trips the flight recorder (dumping the last events), flushes every
// sink and exits 1. Safe on a nil tool (Start failed) and after Close.
func (t *Tool) Fail(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", filepath.Base(os.Args[0]), err)
	t.trip("fatal: " + err.Error())
	os.Exit(1)
}

// trip dumps the flight recorder under reason and tears the tool down
// so sinks flush before exit. Safe on a nil tool and after Close.
func (t *Tool) trip(reason string) {
	if t == nil {
		return
	}
	t.Rec.Trip(reason)
	t.Close()
}
