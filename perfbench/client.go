package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/jobs"
	"repro/internal/server"
)

// client is the load generator's HTTP side. It counts every request it
// sends by the route label the server's telemetry files it under, so the
// books can be balanced against /v1/metrics at the end of a run.
type client struct {
	base string
	hc   *http.Client

	mu     sync.Mutex
	routes map[string]int64
}

func newClient(base string) *client {
	return &client{
		base: base,
		hc: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 8},
		},
		routes: map[string]int64{},
	}
}

// routeCounts copies the per-route request counts.
func (c *client) routeCounts() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.routes))
	for k, v := range c.routes {
		out[k] = v
	}
	return out
}

// do sends one request and decodes a JSON reply into out. route is the
// server's mux pattern for path. It returns the status and how long the
// round trip took, body read included.
func (c *client) do(method, route, path string, body, out any) (int, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	c.mu.Lock()
	c.routes[method+" "+route]++
	c.mu.Unlock()
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, time.Since(start), err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	took := time.Since(start)
	if err != nil {
		return resp.StatusCode, took, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, took, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, took, fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
		}
	}
	return resp.StatusCode, took, nil
}

// awaitReady polls /v1/readyz until it answers 200 or the deadline passes.
func (c *client) awaitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		_, _, err := c.do("GET", "/v1/readyz", "/v1/readyz", nil, nil)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// tally accumulates one phase's client-side outcomes. Safe for use by
// several load-generating goroutines.
type tally struct {
	mu     sync.Mutex
	ops    int64
	failed int64
	reads  []float64 // ms, GET /v1/jobs/{id} and GET /v1/results/{key}
	errs   []string
}

// op records one attempted operation and whether it failed.
func (t *tally) op(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	if err != nil {
		t.failed++
		if len(t.errs) < 8 {
			t.errs = append(t.errs, err.Error())
		}
	}
}

// fail records a failed check on an operation that already counted.
func (t *tally) fail(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failed++
	if len(t.errs) < 8 {
		t.errs = append(t.errs, err.Error())
	}
}

func (t *tally) read(d time.Duration) {
	t.mu.Lock()
	t.reads = append(t.reads, ms(d))
	t.mu.Unlock()
}

// jobOutcome is one grid submission followed to its fetched result.
type jobOutcome struct {
	key        string
	cached     bool
	sent, done time.Time
	result     *server.RunResponse
}

// pollInterval spaces status polls at a fiftieth of the time the job has
// been running, between 100µs and 50ms, so a poll's delay is a small and
// roughly constant share of what it measures.
func pollInterval(elapsed time.Duration) time.Duration {
	d := elapsed / 50
	if d < 100*time.Microsecond {
		d = 100 * time.Microsecond
	}
	if d > 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	return d
}

// runJob submits a grid, polls the job until it is terminal, then
// fetches the stored result. Every request counts as one operation in t.
func (c *client) runJob(t *tally, req server.GridRequest) (jobOutcome, error) {
	out := jobOutcome{sent: time.Now()}
	var posted server.GridResponse
	_, _, err := c.do("POST", "/v1/grid", "/v1/grid", req, &posted)
	t.op(err)
	if err != nil {
		return out, err
	}
	snap := posted.Snapshot
	out.key, out.cached = snap.Key, snap.Cached
	for !snap.State.Terminal() {
		time.Sleep(pollInterval(time.Since(out.sent)))
		var next jobs.Snapshot
		_, took, err := c.do("GET", "/v1/jobs/{id}", "/v1/jobs/"+snap.ID, nil, &next)
		t.op(err)
		if err != nil {
			return out, err
		}
		t.read(took)
		snap = next
	}
	out.done = time.Now()
	if snap.State != jobs.StateDone {
		err := fmt.Errorf("job %s ended %s: %+v", snap.ID, snap.State, snap.Error)
		t.fail(err)
		return out, err
	}
	var res server.RunResponse
	_, took, err := c.do("GET", "/v1/results/{key}", "/v1/results/"+out.key, nil, &res)
	t.op(err)
	if err != nil {
		return out, err
	}
	t.read(took)
	if res.Result == nil {
		err := fmt.Errorf("result %s: empty", out.key)
		t.fail(err)
		return out, err
	}
	out.result = &res
	return out, nil
}
