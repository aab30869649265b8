package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/store"
)

// service is the experiment service over a fresh store, on a loopback
// listener inside the benchmark process. One worker and one task at a
// time: cold compute holds one core and leaves the other to the warm
// path.
type service struct {
	dir string
	st  *store.Store
	srv *serve.Server
	web *httptest.Server
}

func startService(tmp string) (*service, error) {
	dir, err := os.MkdirTemp(tmp, "store-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv, err := serve.New(serve.Config{Store: st, Workers: 1, Exec: core.Exec{Parallelism: 1}})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &service{dir: dir, st: st, srv: srv, web: httptest.NewServer(srv.Handler())}, nil
}

func (s *service) close() {
	s.web.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // drains job goroutines; a timeout only delays removal
	os.RemoveAll(s.dir)
}

// client returns an HTTP client that keeps one connection to the
// service, so each stream is one user on one connection.
func (s *service) client() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

func (s *service) url(path string) string { return s.web.URL + path }

// do sends one request and returns the status and the whole body.
func do(c *http.Client, method, url string, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, b, err
}

// submitWait computes a spec through the service (POST ?wait=1) and
// returns the result bytes.
func (s *service) submitWait(c *http.Client, spec core.ExperimentSpec) ([]byte, error) {
	body, err := spec.Encode()
	if err != nil {
		return nil, err
	}
	code, _, out, err := do(c, http.MethodPost, s.url("/v1/experiments?wait=1"), body)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d: %s", spec.Name, code, bytes.TrimSpace(out))
	}
	return out, nil
}

// warmItem is one stored spec and the bytes a hit must return.
type warmItem struct {
	name string
	body []byte // canonical spec bytes to POST
	want []byte // the stored cold result bytes
}

func warmItems(specs []core.ExperimentSpec, results [][]byte) ([]warmItem, error) {
	items := make([]warmItem, len(specs))
	for i, sp := range specs {
		body, err := sp.Encode()
		if err != nil {
			return nil, err
		}
		items[i] = warmItem{name: sp.Name, body: body, want: results[i]}
	}
	return items, nil
}

// streamStats holds one stream's per-request samples in milliseconds.
type streamStats struct {
	lat  []float64 // to the request's last byte; see warmStream and coldLoop for where it starts
	late []float64 // open loop only: how late the generator itself sent each request
}

// warmStream is the open-loop warm-hit client: n POSTs of stored specs,
// round-robin, request i due at start + i/rate, until ctx ends. The
// client holds one connection, so when a slow answer makes a request
// late, its latency runs from its due time and the stall is charged to
// every request it delays. When the generator itself wakes late (timer
// granularity), its latency runs from when it was actually sent, and the
// delay is reported as generator lateness instead.
func (s *service) warmStream(ctx context.Context, g *gate, tr *tracer, items []warmItem, n int, rate float64) streamStats {
	c := s.client()
	defer c.CloseIdleConnections()
	st := streamStats{lat: make([]float64, 0, n), late: make([]float64, 0, n)}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	prevDone := start
	for i := 0; i < n && ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		it := items[i%len(items)]
		sent := time.Now()
		from := sent
		if prevDone.After(due) {
			from = due
		}
		st.late = append(st.late, ms(sent.Sub(maxTime(due, prevDone))))
		sp := tr.begin("serve.warm_hit", 0)
		code, hdr, out, err := do(c, http.MethodPost, s.url("/v1/experiments"), it.body)
		tr.end(sp)
		prevDone = time.Now()
		st.lat = append(st.lat, ms(prevDone.Sub(from)))
		switch {
		case err != nil:
		case code != http.StatusOK:
			err = fmt.Errorf("warm %s: status %d", it.name, code)
		case hdr.Get("X-RHX-Cache") != "hit":
			err = fmt.Errorf("warm %s: not served from the store", it.name)
		case !bytes.Equal(out, it.want):
			err = fmt.Errorf("warm %s: body differs from the stored cold bytes", it.name)
		}
		g.op(err)
	}
	return st
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// coldJob is one finished cold request.
type coldJob struct {
	spec core.ExperimentSpec
	raw  []byte
}

// coldLoop is the closed-loop cold client: submit spec i, follow its SSE
// stream to the terminal frame, GET the result, then submit spec i+1,
// until ctx ends. Each result is checked to be the complete canonical
// result of its spec; correctness against an independent computation is
// checked afterwards on the first jobs (see verifyCold).
func (s *service) coldLoop(ctx context.Context, g *gate, tr *tracer, next func(i int) (core.ExperimentSpec, error)) (streamStats, []coldJob) {
	c := s.client()
	defer c.CloseIdleConnections()
	var st streamStats
	var jobs []coldJob
	for i := 0; ctx.Err() == nil; i++ {
		spec, err := next(i)
		if err != nil {
			g.op(err)
			return st, jobs
		}
		t0 := time.Now()
		sp := tr.begin("serve.cold_job", 0)
		raw, err := s.coldJob(c, tr, sp, spec)
		tr.end(sp)
		st.lat = append(st.lat, ms(time.Since(t0)))
		if err == nil {
			err = g.check(spec, raw)
		}
		if g.op(err) {
			jobs = append(jobs, coldJob{spec: spec, raw: raw})
		}
	}
	return st, jobs
}

func (s *service) coldJob(c *http.Client, tr *tracer, parent int, spec core.ExperimentSpec) ([]byte, error) {
	body, err := spec.Encode()
	if err != nil {
		return nil, err
	}
	sp := tr.begin("serve.post", parent)
	code, _, out, err := do(c, http.MethodPost, s.url("/v1/experiments"), body)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if code != http.StatusAccepted {
		return nil, fmt.Errorf("cold POST %s: status %d, want 202", spec.Name, code)
	}
	var ack struct {
		Hash string `json:"hash"`
	}
	if err := json.Unmarshal(out, &ack); err != nil {
		return nil, fmt.Errorf("cold POST %s: %w", spec.Name, err)
	}
	sp = tr.begin("serve.events", parent)
	status, err := followEvents(c, s.url("/v1/experiments/"+ack.Hash+"/events"))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if status != "done" {
		return nil, fmt.Errorf("cold %s: job ended %q", spec.Name, status)
	}
	sp = tr.begin("serve.get", parent)
	code, _, out, err = do(c, http.MethodGet, s.url("/v1/experiments/"+ack.Hash), nil)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("cold GET %s: status %d", spec.Name, code)
	}
	return out, nil
}

// followEvents reads an SSE stream to its terminal status frame and
// returns that status.
func followEvents(c *http.Client, url string) (string, error) {
	resp, err := c.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return "", fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	status := ""
	terminal := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: status":
			terminal = true
		case terminal && strings.HasPrefix(line, "data: "):
			var doc struct {
				Status string `json:"status"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &doc); err != nil {
				return "", fmt.Errorf("events: %w", err)
			}
			status = doc.Status
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	if status == "" {
		return "", fmt.Errorf("events: stream ended without a terminal frame")
	}
	return status, nil
}

// verifyCold recomputes the first k cold jobs directly through core and
// requires the service's bytes to equal them.
func verifyCold(g *gate, tr *tracer, jobs []coldJob, k int) []float64 {
	var runs []float64
	for i := 0; i < k && i < len(jobs); i++ {
		j := jobs[i]
		sp := tr.begin("core.run", 0)
		t0 := time.Now()
		res, err := core.RunContext(context.Background(), j.spec, core.Exec{Parallelism: 1})
		var raw []byte
		if err == nil {
			raw, err = res.Encode()
		}
		runs = append(runs, ms(time.Since(t0)))
		tr.end(sp)
		if err == nil && !bytes.Equal(raw, j.raw) {
			err = fmt.Errorf("cold %s: service bytes differ from a direct run", j.spec.Name)
		}
		g.op(err)
	}
	return runs
}
