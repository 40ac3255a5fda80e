package compressd

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/guard"
	"repro/internal/telemetry"
)

func testAdmission(cfg AdmissionConfig) *admission {
	return newAdmission(cfg, 4, telemetry.New())
}

func TestAdmissionFastPath(t *testing.T) {
	a := testAdmission(AdmissionConfig{MaxInFlight: 2})
	r1, err := a.Acquire(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Acquire(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if inFlight, queued, _ := a.Stats(); inFlight != 2 || queued != 0 {
		t.Fatalf("stats: %d in flight, %d queued", inFlight, queued)
	}
	r1()
	r2()
	if inFlight, _, _ := a.Stats(); inFlight != 0 {
		t.Fatalf("release leaked a slot: %d in flight", inFlight)
	}
}

func TestAdmissionQueueOverflowSheds(t *testing.T) {
	a := testAdmission(AdmissionConfig{MaxInFlight: 1, MaxQueue: 1})
	release, err := a.Acquire(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}

	// One waiter fits in the queue...
	waiterIn := make(chan error, 1)
	go func() {
		r, err := a.Acquire(context.Background(), 0)
		if err == nil {
			defer r()
		}
		waiterIn <- err
	}()
	// ...wait until it is actually queued.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, queued, _ := a.Stats(); queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// ...and the next request sheds immediately.
	if _, err := a.Acquire(context.Background(), 0); !errors.Is(err, ErrShed) {
		t.Fatalf("over-queue acquire: want ErrShed, got %v", err)
	}
	release()
	if err := <-waiterIn; err != nil {
		t.Fatalf("queued waiter should be admitted after release: %v", err)
	}
}

func TestAdmissionDeadlineWhileQueued(t *testing.T) {
	a := testAdmission(AdmissionConfig{MaxInFlight: 1, MaxQueue: 4})
	release, err := a.Acquire(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := a.Acquire(ctx, 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued past deadline: want DeadlineExceeded, got %v", err)
	}
	if _, queued, _ := a.Stats(); queued != 0 {
		t.Fatalf("abandoned waiter leaked queue slot: %d queued", queued)
	}
}

func TestAdmissionMemWatermark(t *testing.T) {
	a := testAdmission(AdmissionConfig{MaxInFlight: 8, MaxEstMem: 1000})
	r1, err := a.Acquire(context.Background(), 600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Acquire(context.Background(), 600); !errors.Is(err, ErrShed) {
		t.Fatalf("over-watermark acquire: want ErrShed, got %v", err)
	}
	r1()
	// Released memory re-opens the watermark.
	r2, err := a.Acquire(context.Background(), 600)
	if err != nil {
		t.Fatalf("post-release acquire: %v", err)
	}
	r2()
	if _, _, estMem := a.Stats(); estMem != 0 {
		t.Fatalf("est-mem accounting leaked: %d", estMem)
	}
}

// TestAdmissionConcurrent hammers Acquire/release from many goroutines
// (-race coverage) and checks the invariants hold throughout: in-flight
// never exceeds the bound and all memory is returned at quiescence.
func TestAdmissionConcurrent(t *testing.T) {
	a := testAdmission(AdmissionConfig{MaxInFlight: 3, MaxQueue: 64, MaxEstMem: 1 << 20})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				release, err := a.Acquire(context.Background(), 100)
				if errors.Is(err, ErrShed) {
					continue
				}
				if err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				if inFlight, _, _ := a.Stats(); inFlight > 3 {
					t.Errorf("in-flight %d over bound", inFlight)
				}
				release()
			}
		}()
	}
	wg.Wait()
	if inFlight, queued, estMem := a.Stats(); inFlight != 0 || queued != 0 || estMem != 0 {
		t.Fatalf("leaked state: %d in flight, %d queued, %dB est", inFlight, queued, estMem)
	}
}

// TestServerShedsUnderOverload drives the full HTTP path: with one
// execution slot and a one-deep queue, a third concurrent request must
// shed with 429 and a Retry-After hint.
func TestServerShedsUnderOverload(t *testing.T) {
	_, base := startServer(t, Config{
		Admission: AdmissionConfig{MaxInFlight: 1, MaxQueue: 1, RetryAfter: 2 * time.Second},
		// A fast host spins through DefaultMaxSteps inside the 1s
		// deadline (413, not 408); lift the step bound so the deadline
		// is what stops the held requests.
		BaseLimits: guard.Limits{MaxSteps: 1 << 40},
	})

	// Occupy the slot with a request that spins for ~1s.
	hold := RunRequest{Source: spinSrc, Limits: LimitsSpec{TimeoutMS: 1000}}
	done := make(chan int, 2)
	go func() { done <- post(t, base+"/v1/run", hold, nil) }()
	waitForGauge(t, base, "compressd_admission_in_flight 1")

	// Fill the queue.
	go func() { done <- post(t, base+"/v1/run", hold, nil) }()
	waitForGauge(t, base, "compressd_admission_queued 1")

	// Third request sheds deterministically.
	var er ErrorResponse
	resp := postRaw(t, base+"/v1/run", RunRequest{Source: fibSrc}, &er)
	if resp.StatusCode != 429 || er.Kind != "shed" {
		t.Fatalf("overload = %d %q, want 429 shed", resp.StatusCode, er.Kind)
	}
	if resp.Header.Get("Retry-After") != "2" || er.RetryAfterMS != 2000 {
		t.Fatalf("Retry-After hint missing: header=%q body=%+v", resp.Header.Get("Retry-After"), er)
	}

	// The held requests finish (trapping on their own deadlines).
	for i := 0; i < 2; i++ {
		if code := <-done; code != 408 {
			t.Fatalf("held request = %d, want 408", code)
		}
	}
}

// TestServerShedsOnMemWatermark: an absurdly low watermark sheds every
// request before any work happens.
func TestServerShedsOnMemWatermark(t *testing.T) {
	_, base := startServer(t, Config{Admission: AdmissionConfig{MaxEstMem: 1}})
	code, kind := errKind(t, base+"/v1/compress", CompressRequest{Source: fibSrc})
	if code != 429 || kind != "shed" {
		t.Fatalf("mem shed = %d %q", code, kind)
	}
}

// postRaw is post, but returns the raw response for header assertions.
func postRaw(t *testing.T, url string, req any, out any) *http.Response {
	t.Helper()
	resp, body := doPost(t, url, req)
	if out != nil {
		if err := jsonUnmarshal(body, out); err != nil {
			t.Fatalf("decoding %q: %v", body, err)
		}
	}
	return resp
}

// waitForGauge polls /metrics until the exact line appears.
func waitForGauge(t *testing.T, base, want string) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if body := get(t, base+"/metrics"); containsLine(body, want) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("gauge %q never appeared in /metrics", want)
}
