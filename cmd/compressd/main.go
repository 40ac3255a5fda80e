// Command compressd serves the compression pipelines as a
// fault-tolerant HTTP/JSON daemon: compile-and-compress, decompress,
// and run-under-limits, with admission control in front of the shared
// worker pool, per-request deadlines folded into the resource
// governor, a typed error surface, and graceful drain on SIGTERM.
//
// Usage:
//
//	compressd [-addr :8717] [flags]
//
// Endpoints:
//
//	POST /v1/compress    {"source": "...", "format": "wire|brisc"}
//	POST /v1/decompress  {"artifact": <base64>, "format": "wire|brisc", "dump_ir": true}
//	POST /v1/run         {"source"|"artifact": ..., "engine": "vm|brisc|jit",
//	                      "limits": {"max_steps": n, "timeout_ms": n, ...}}
//	GET  /metrics        Prometheus exposition (compressd_* series)
//	GET  /healthz        liveness       GET /readyz   readiness (503 while draining)
//
// Robustness:
//
//	-request-timeout d   per-request wall-clock ceiling (also the default deadline)
//	-max-steps n         per-request step ceiling (clients may tighten, not exceed)
//	-max-mem n           per-request engine memory ceiling in bytes
//	-max-inflight n      admission: concurrent requests (0 = 2x workers)
//	-max-queue n         admission: bounded wait queue (0 = 4x inflight)
//	-max-est-mem n       admission: summed memory-estimate watermark (0 = off)
//	-retry-after d       backoff hint on 429/503 responses
//	-drain-timeout d     graceful-drain budget after SIGTERM
//
// Chaos (deterministic fault injection; for soak tests and CI):
//
//	-chaos-seed n        seed for every injection decision
//	-chaos-corrupt p     probability an artifact is corrupted before decode
//	-chaos-latency p     probability a request is delayed
//	-chaos-trap p        probability a run's deadline is forced to expire
//
// Observability: the shared flags (-metrics, -trace, -trace-out,
// -debug-addr, -sample, -cpuprofile, -memprofile). The daemon always
// keeps a live recorder so /metrics is populated even with no flags.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/compressd"
	"repro/internal/guard"
	"repro/internal/telemetry/expose"
)

func main() {
	addr := flag.String("addr", ":8717", "listen address (host:port; :0 picks a free port)")
	workers := flag.Int("workers", 0, "worker pool size: 0 = one per CPU")
	requestTimeout := flag.Duration("request-timeout", compressd.DefaultRequestTimeout, "per-request wall-clock ceiling")
	maxSteps := flag.Int64("max-steps", compressd.DefaultMaxSteps, "per-request executed-instruction ceiling")
	maxMem := flag.Int("max-mem", compressd.DefaultMaxMem, "per-request engine memory ceiling in bytes")
	maxDepth := flag.Int("max-depth", compressd.DefaultMaxCallDepth, "per-request call-depth ceiling")
	maxBody := flag.Int64("max-body", compressd.DefaultMaxBodyBytes, "request body cap in bytes")
	maxInflight := flag.Int("max-inflight", 0, "admission: concurrent requests (0 = 2x workers)")
	maxQueue := flag.Int("max-queue", 0, "admission: bounded wait-queue depth (0 = 4x inflight)")
	maxEstMem := flag.Int64("max-est-mem", 0, "admission: summed memory-estimate watermark in bytes (0 = unlimited)")
	retryAfter := flag.Duration("retry-after", time.Second, "backoff hint attached to 429/503 responses")
	drainTimeout := flag.Duration("drain-timeout", compressd.DefaultDrainTimeout, "graceful-drain budget after SIGTERM")
	chaosSeed := flag.Int64("chaos-seed", 0, "chaos: seed for deterministic fault injection")
	chaosCorrupt := flag.Float64("chaos-corrupt", 0, "chaos: artifact-corruption probability [0,1]")
	chaosLatency := flag.Float64("chaos-latency", 0, "chaos: injected-latency probability [0,1]")
	chaosMaxLatency := flag.Duration("chaos-max-latency", 50*time.Millisecond, "chaos: injected-latency bound")
	chaosTrap := flag.Float64("chaos-trap", 0, "chaos: forced-trap probability [0,1]")
	obs := expose.AddFlags(flag.CommandLine)
	flag.Parse()

	// The daemon always runs a recorder: /metrics must be live without
	// any observability flags.
	obs.NeedRecorder = true
	tool, err := obs.Start()
	if err != nil {
		tool.Fail(err)
	}

	// Install the handler before the listener exists: once the address
	// is announced a supervisor may signal at any moment.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)

	srv, err := compressd.Start(*addr, compressd.Config{
		Workers: *workers,
		BaseLimits: guard.Limits{
			MaxSteps:     *maxSteps,
			MaxMem:       *maxMem,
			MaxCallDepth: *maxDepth,
		},
		RequestTimeout: *requestTimeout,
		MaxBodyBytes:   *maxBody,
		DrainTimeout:   *drainTimeout,
		Admission: compressd.AdmissionConfig{
			MaxInFlight: *maxInflight,
			MaxQueue:    *maxQueue,
			MaxEstMem:   *maxEstMem,
			RetryAfter:  *retryAfter,
		},
		Chaos: compressd.ChaosConfig{
			Seed:        *chaosSeed,
			CorruptRate: *chaosCorrupt,
			LatencyRate: *chaosLatency,
			MaxLatency:  *chaosMaxLatency,
			TrapRate:    *chaosTrap,
		},
		Rec: tool.Rec,
	})
	if err != nil {
		tool.Fail(err)
	}
	// Stdout, unbuffered by newline: supervisors and the e2e tests
	// scrape the bound address from this line.
	fmt.Printf("compressd: listening on %s\n", srv.Addr())

	got := <-sig
	fmt.Fprintf(os.Stderr, "compressd: %v: draining (budget %v)\n", got, *drainTimeout)

	code := 0
	if err := srv.Drain(); err != nil {
		fmt.Fprintf(os.Stderr, "compressd: forced drain: %v\n", err)
		code = 1
	} else {
		fmt.Fprintln(os.Stderr, "compressd: drained cleanly")
	}
	// Flush telemetry (summary, traces, profiles) before exit.
	if err := tool.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "compressd:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}
