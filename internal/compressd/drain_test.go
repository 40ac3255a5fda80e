package compressd

import (
	"bytes"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/guard"
	"repro/internal/telemetry"
)

// TestDrainWaitsForInFlight: a drain started while a request is
// executing lets it finish (here: trap on its own deadline), rejects
// late requests, and completes cleanly inside the budget.
func TestDrainWaitsForInFlight(t *testing.T) {
	srv, base := startServer(t, Config{
		DrainTimeout: 5 * time.Second,
		// The 500ms deadline, not the step bound, must stop the spin,
		// however fast the host runs it.
		BaseLimits: guard.Limits{MaxSteps: 1 << 40},
	})

	inFlight := make(chan int, 1)
	go func() {
		inFlight <- post(t, base+"/v1/run", RunRequest{Source: spinSrc, Limits: LimitsSpec{TimeoutMS: 500}}, nil)
	}()
	waitForGauge(t, base, "compressd_admission_in_flight 1")

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain() }()

	// A late request is refused: either the listener is already gone
	// (connection error) or the draining check answers 503.
	deadline := time.Now().Add(3 * time.Second)
	rejected := false
	for time.Now().Before(deadline) && !rejected {
		resp, err := http.Post(base+"/v1/compress", "application/json", strings.NewReader(`{"source":"int main(void){return 0;}"}`))
		if err != nil {
			rejected = true // connection refused: listener closed
			break
		}
		if resp.StatusCode == 503 {
			if ra := resp.Header.Get("Retry-After"); ra == "" {
				t.Error("503 during drain missing Retry-After")
			}
			rejected = true
		}
		resp.Body.Close()
		time.Sleep(10 * time.Millisecond)
	}
	if !rejected {
		t.Fatal("late requests kept being served during drain")
	}

	// The in-flight request finishes with its own deadline trap.
	if code := <-inFlight; code != 408 {
		t.Fatalf("in-flight request = %d, want 408", code)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain should be clean: %v", err)
	}
	if srv.rec.Counter("compressd.drain.clean") != 1 {
		t.Fatal("clean drain not counted")
	}
}

// TestDrainOverrunTrapsInFlight: a request that would outlive the
// drain budget is trapped via context cancellation — the engine stops
// with LimitDeadline, the client gets 408, the flight ring is dumped,
// and Drain still completes promptly.
func TestDrainOverrunTrapsInFlight(t *testing.T) {
	rec := telemetry.New()
	rec.EnableFlight(32)
	var dump bytes.Buffer
	rec.SetFlightOutput(&dump)
	defer rec.Close()

	srv, base := startServer(t, Config{
		Rec:          rec,
		DrainTimeout: 300 * time.Millisecond,
		// The spin would run ~minutes without intervention.
		BaseLimits:     guard.Limits{MaxSteps: 1 << 40},
		RequestTimeout: 60 * time.Second,
	})

	inFlight := make(chan int, 1)
	go func() { inFlight <- post(t, base+"/v1/run", RunRequest{Source: spinSrc}, nil) }()
	waitForGauge(t, base, "compressd_admission_in_flight 1")

	start := time.Now()
	err := srv.Drain()
	elapsed := time.Since(start)
	if elapsed > 3*time.Second {
		t.Fatalf("forced drain took %v, want ~drain budget", elapsed)
	}
	if code := <-inFlight; code != 408 {
		t.Fatalf("trapped in-flight request = %d, want 408", code)
	}
	// The overrun path ran: counted, and the flight ring was dumped.
	if rec.Counter("compressd.drain.forced") != 1 {
		t.Fatalf("forced drain not counted (drain err: %v)", err)
	}
	if !strings.Contains(dump.String(), "drain deadline") {
		t.Fatalf("flight ring not dumped on drain overrun:\n%s", dump.String())
	}
}

// TestChaosSoakNoGoroutineLeak is the chaos soak the acceptance
// criteria name: a mixed workload under seeded fault injection, every
// response typed, zero panics, and — after drain — zero goroutine
// leaks.
func TestChaosSoakNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	rec := telemetry.New()
	rec.EnableFlight(64)
	rec.SetFlightOutput(io.Discard)
	defer rec.Close()
	srv, err := Start("127.0.0.1:0", Config{
		Rec:            rec,
		RequestTimeout: 5 * time.Second,
		Chaos: ChaosConfig{
			Seed:        2026,
			CorruptRate: 0.3,
			LatencyRate: 0.3,
			MaxLatency:  5 * time.Millisecond,
			TrapRate:    0.3,
		},
		Admission: AdmissionConfig{MaxInFlight: 8, MaxQueue: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()

	// Keep-alives off so the soak's connections die with their requests
	// and the goroutine accounting below stays honest.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	defer client.CloseIdleConnections()

	// A valid artifact for the decompress/run mix, made before chaos
	// can interfere (compress requests don't pass through Artifact()).
	var cr CompressResponse
	if code := post(t, base+"/v1/compress", CompressRequest{Source: fibSrc}, &cr); code != 200 {
		t.Fatalf("seed compress = %d", code)
	}

	reqs := []struct {
		url  string
		body any
	}{
		{"/v1/compress", CompressRequest{Source: fibSrc}},
		{"/v1/decompress", DecompressRequest{Artifact: cr.Artifact}},
		{"/v1/run", RunRequest{Source: fibSrc}},
		{"/v1/run", RunRequest{Artifact: cr.Artifact}},
		{"/v1/run", RunRequest{Source: spinSrc, Limits: LimitsSpec{TimeoutMS: 50}}},
		{"/v1/run", RunRequest{Source: fibSrc, Engine: "brisc"}},
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				r := reqs[(g+i)%len(reqs)]
				body, _ := jsonMarshal(r.body)
				resp, err := client.Post(base+r.url, "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("soak request: %v", err)
					return
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch {
				case resp.StatusCode == 200:
				case resp.StatusCode >= 400 && resp.StatusCode < 500, resp.StatusCode == 503:
					var er ErrorResponse
					if err := jsonUnmarshal(data, &er); err != nil || er.Kind == "" {
						t.Errorf("untyped %d response: %s", resp.StatusCode, data)
					}
				default:
					t.Errorf("soak got %d: %s", resp.StatusCode, data)
				}
			}
		}(g)
	}
	wg.Wait()

	if err := srv.Drain(); err != nil {
		t.Fatalf("post-soak drain: %v", err)
	}

	// Every goroutine the service started must be gone; allow brief
	// settling for connection teardown.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, after, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
