package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/compressd"
	"repro/internal/telemetry"
)

// Request classes of the serve mix: compress requests (writes) beside
// run-from-artifact requests (reads). Each class is a fifth of the mix,
// so p90 falls inside the slowest class, not on a class boundary.
const (
	reqCompressWire = iota
	reqCompressBrisc
	reqRunVM
	reqRunBrisc
	reqRunJIT
	numReqClasses
)

type request struct{ class, prog int }

// serveMix is every (class, program) pair once, in a seeded order.
func serveMix(seed int64, nprogs int) []request {
	var mix []request
	for c := 0; c < numReqClasses; c++ {
		for p := 0; p < nprogs; p++ {
			mix = append(mix, request{c, p})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
	return mix
}

// service is one in-process compressd with its clients, each on its own
// keep-alive connection.
type service struct {
	srv     *compressd.Server
	base    string
	clients []*http.Client
	progs   []*program
	mix     []request
	next    int // mix offset of the next pass
}

func startService(progs []*program, mix []request, rec *telemetry.Recorder) (*service, error) {
	nproc := runtime.GOMAXPROCS(0)
	srv, err := compressd.Start("127.0.0.1:0", compressd.Config{Workers: nproc, Rec: rec})
	if err != nil {
		return nil, err
	}
	s := &service{srv: srv, base: "http://" + srv.Addr(), progs: progs, mix: mix}
	for i := 0; i < nproc; i++ {
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}})
	}
	return s, nil
}

func (s *service) close() error {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	return s.srv.Close()
}

// reqStats is the serve loop's view of the requests it sent.
type reqStats struct {
	opStats
	shed int
}

// pass sends len(mix) requests, split evenly over the clients, each
// client in a closed loop: its next request goes out when the previous
// one has been answered. Latencies are wall times less the pass's share
// of stolen time, scaled to nominal speed by cal around the pass.
func (s *service) pass(rec *telemetry.Recorder, st *reqStats, cal *calibration) {
	n := len(s.mix) / len(s.clients)
	type result struct {
		d    time.Duration
		err  error
		shed bool
	}
	res := make([][]result, len(s.clients))
	var (
		wall  time.Duration
		share float64
	)
	f := cal.around(func() {
		pass := startWall()
		var wg sync.WaitGroup
		for c := range s.clients {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					rq := s.mix[(s.next+c*n+i)%len(s.mix)]
					t0 := time.Now()
					shed, err := s.do(s.clients[c], rq, rec)
					res[c] = append(res[c], result{time.Since(t0), err, shed})
				}
			}(c)
		}
		wg.Wait()
		wall, share = pass.stop()
	})
	st.elapsed += scale(wall, f)
	s.next = (s.next + n*len(s.clients)) % len(s.mix)
	for _, rs := range res {
		for _, r := range rs {
			st.add(scale(r.d, f*share), r.err)
			if r.shed {
				st.shed++
			}
		}
	}
}

// do sends one request and checks the answer: a compressed artifact
// must equal the set-up bytes, a run must match the reference.
func (s *service) do(hc *http.Client, rq request, rec *telemetry.Recorder) (shed bool, err error) {
	p := s.progs[rq.prog]
	var (
		endpoint string
		body     any
	)
	switch rq.class {
	case reqCompressWire:
		endpoint, body = "compress", compressd.CompressRequest{Name: p.name, Source: p.src, Format: "wire"}
	case reqCompressBrisc:
		endpoint, body = "compress", compressd.CompressRequest{Name: p.name, Source: p.src, Format: "brisc"}
	case reqRunVM:
		endpoint, body = "run", compressd.RunRequest{Name: p.name, Artifact: p.wire, Format: "wire", Engine: "vm"}
	case reqRunBrisc:
		endpoint, body = "run", compressd.RunRequest{Name: p.name, Artifact: p.brisc, Format: "brisc", Engine: "brisc"}
	case reqRunJIT:
		endpoint, body = "run", compressd.RunRequest{Name: p.name, Artifact: p.brisc, Format: "brisc", Engine: "jit"}
	}
	sp := span(rec, "compressd."+endpoint, telemetry.String("program", p.name))
	defer sp.End()
	data, err := json.Marshal(body)
	if err != nil {
		return false, err
	}
	resp, err := hc.Post(s.base+"/v1/"+endpoint, "application/json", bytes.NewReader(data))
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return false, err
	}
	if resp.StatusCode != http.StatusOK {
		var e compressd.ErrorResponse
		_ = json.Unmarshal(raw, &e) // the status alone is the failure; kind is detail
		return resp.StatusCode == http.StatusTooManyRequests,
			fmt.Errorf("%s %s: HTTP %d %s: %s", endpoint, p.name, resp.StatusCode, e.Kind, e.Error)
	}
	if endpoint == "compress" {
		var cr compressd.CompressResponse
		if err := json.Unmarshal(raw, &cr); err != nil {
			return false, fmt.Errorf("compress %s: %w", p.name, err)
		}
		wantBytes := p.wire
		if rq.class == reqCompressBrisc {
			wantBytes = p.brisc
		}
		if !bytes.Equal(cr.Artifact, wantBytes) {
			return false, fmt.Errorf("compress %s (%s): %w", p.name, cr.Format, errArtifact)
		}
		return false, nil
	}
	var rr compressd.RunResponse
	if err := json.Unmarshal(raw, &rr); err != nil {
		return false, fmt.Errorf("run %s: %w", p.name, err)
	}
	if err := check(p.want, rr.ExitCode, rr.Output); err != nil {
		return false, fmt.Errorf("run %s (%s): %w", p.name, rr.Engine, err)
	}
	return false, nil
}

// sampleQueued scrapes the server's admission queue gauge every few
// milliseconds until stop is called, which returns the largest value
// seen.
func (s *service) sampleQueued() (stop func() float64) {
	done := make(chan struct{})
	exited := make(chan struct{})
	var peak float64
	go func() {
		defer close(exited)
		hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
		defer hc.CloseIdleConnections()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if v, ok := scrapeGauge(hc, s.base+"/metrics", "compressd_admission_queued"); ok {
					peak = max(peak, v)
				}
			}
		}
	}()
	return func() float64 {
		close(done)
		<-exited
		return peak
	}
}

func scrapeGauge(hc *http.Client, url, name string) (float64, bool) {
	resp, err := hc.Get(url)
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			return f, err == nil
		}
	}
	return 0, false
}
