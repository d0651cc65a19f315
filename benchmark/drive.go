package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// sample is one sent request and what came back. Answers are checked
// after the measured phase, so checking costs the server no CPU.
type sample struct {
	Client, Index int
	Req           request
	Sent          []byte // the body the server saw
	Start         time.Time
	Latency       time.Duration // send → body fully read
	Status        int
	Body          []byte
	Err           error
	Failed        bool // set by the oracle
}

// limit ends a client's loop: after its share of Count requests when
// Count > 0, and once Duration has passed when Duration > 0. The zero
// limit sends nothing.
type limit struct {
	Count    int
	Duration time.Duration
}

// drive runs the closed loop: every client sends its next request only
// after the previous answer is fully read. It returns the samples of all
// clients and the wall time from the first send to the last answer.
func drive(ctx context.Context, base string, w *workload, in inputs, lim limit, traced bool) ([]sample, time.Duration) {
	suffix := ""
	if traced {
		suffix = "?debug=trace"
	}
	perClient := make([][]sample, w.Clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < w.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// One connection per client: a planning tool's session.
			hc := &http.Client{
				Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
				Timeout:   2 * time.Minute,
			}
			defer hc.CloseIdleConnections()
			count := lim.Count / w.Clients
			if c < lim.Count%w.Clients {
				count++
			}
			var prev *sample
			for i := 0; ctx.Err() == nil && (lim.Count > 0 || lim.Duration > 0); i++ {
				if lim.Count > 0 && i >= count {
					break
				}
				if lim.Duration > 0 && time.Since(start) >= lim.Duration {
					break
				}
				s := sample{Client: c, Index: i, Req: w.Next(in, c, i)}
				if s.Req.PlanFromPrev {
					s.Req.Estimate.Plan = planOf(prev)
				}
				send(ctx, hc, base+s.Req.path()+suffix, &s)
				perClient[c] = append(perClient[c], s)
				prev = &perClient[c][len(perClient[c])-1]
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []sample
	for _, s := range perClient {
		all = append(all, s...)
	}
	return all, wall
}

// send posts one request and reads the whole answer into s.
func send(ctx context.Context, hc *http.Client, url string, s *sample) {
	s.Sent = s.Req.body()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(s.Sent))
	if err != nil {
		s.Err = err
		return
	}
	hreq.Header.Set("Content-Type", "application/json")
	s.Start = time.Now()
	resp, err := hc.Do(hreq)
	if err != nil {
		s.Err = err
		s.Latency = time.Since(s.Start)
		return
	}
	s.Body, s.Err = io.ReadAll(resp.Body)
	s.Latency = time.Since(s.Start)
	resp.Body.Close()
	s.Status = resp.StatusCode
}

// planOf extracts the plan a solve answered with (nil when there is
// none; the server then rejects the estimate and the oracle counts it).
func planOf(s *sample) [][]int32 {
	if s == nil {
		return nil
	}
	var r struct {
		Plan [][]int32 `json:"plan"`
	}
	if json.Unmarshal(s.Body, &r) != nil {
		return nil
	}
	return r.Plan
}

// warmup sends the workload's set-up requests from one client, in order.
func warmup(ctx context.Context, base string, reqs []request) error {
	hc := &http.Client{Timeout: 2 * time.Minute}
	defer hc.CloseIdleConnections()
	for i, r := range reqs {
		s := sample{Req: r}
		send(ctx, hc, base+r.path(), &s)
		if s.Err != nil {
			return fmt.Errorf("warm-up request %d: %w", i, s.Err)
		}
		if s.Status != http.StatusOK {
			return fmt.Errorf("warm-up request %d: status %d: %s", i, s.Status, s.Body)
		}
	}
	return nil
}
