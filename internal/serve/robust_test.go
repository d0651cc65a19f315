package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"oipa/internal/cascade"
	"oipa/internal/faultpoint"
	"oipa/internal/logistic"
)

// postRaw is postJSON without the status-code filtering: it returns the
// status, the Retry-After header, and the raw body so the robustness
// tests can assert on the shedding contract.
func postRaw(t testing.TB, ts *httptest.Server, path string, body interface{}) (int, string, string) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Retry-After"), string(raw)
}

func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// A saturated admission semaphore with no wait queue sheds the excess
// request immediately: 429, Retry-After set, nothing executed.
func TestAdmissionShedsWhenSaturated(t *testing.T) {
	defer faultpoint.Reset()
	s := testServer(t, func(c *Config) {
		c.AdmitCapacity = weightSolve // one solve fills the semaphore
		c.AdmitQueue = -1             // no wait queue
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if err := faultpoint.Arm("serve.solve.pre", "delay:400ms"); err != nil {
		t.Fatal(err)
	}
	req := SolveRequest{Campaign: testCampaign(0, 1), Method: "greedy", K: 2, Theta: 400}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if code, _, body := postRaw(t, ts, "/v1/solve", req); code != 200 {
			t.Errorf("pinned solve: status %d: %s", code, body)
		}
	}()
	// The pinned solve holds its slot through the injected delay; once it
	// is admitted, the next solve must be shed.
	waitFor(t, "pinned solve admitted", func() bool { return s.inflight.inflight() == 1 })
	code, retry, body := postRaw(t, ts, "/v1/solve", req)
	if code != 429 {
		t.Fatalf("saturated solve: status %d (want 429): %s", code, body)
	}
	if retry == "" {
		t.Fatal("shed response missing Retry-After")
	}
	// A request that can never succeed is refused, not shed: 400 with no
	// Retry-After while the slot is still held.
	for _, tc := range hopelessRequests() {
		if code, retry, body := postRaw(t, ts, tc.path, tc.req); code != 400 || retry != "" {
			t.Errorf("%s %s while saturated: status %d, Retry-After %q (want 400, none): %s", tc.path, tc.name, code, retry, body)
		}
	}
	if s.inflight.inflight() != 1 {
		t.Error("the pinned solve left before the refusals were checked")
	}
	wg.Wait()
	if m := s.Metrics(); m.Server.ShedTotal != 1 {
		t.Fatalf("shed_total = %d, want 1", m.Server.ShedTotal)
	}
}

// A burst of identical solves far past admission capacity, each admitted
// solve held past its own deadline, gets exactly three answers: the
// admitted solve held before the registry expires there (503); the one
// held between artifact and dispatch degrades to its incumbent (200,
// degraded); the rest overflow the queue or expire in it (429). Every
// shed carries Retry-After, and /metrics counts exactly what the clients
// saw.
func TestSaturationBurstAccounting(t *testing.T) {
	defer faultpoint.Reset()
	const solveSlots, requests, timeoutMS = 2, 12, 100
	s := testServer(t, func(c *Config) {
		c.AdmitCapacity = solveSlots * weightSolve
		c.AdmitQueue = solveSlots
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := SolveRequest{Campaign: testCampaign(0, 1), Method: "babp", K: 3, Theta: 400, TimeoutMS: timeoutMS}
	if code, body := postJSON(t, ts, "/v1/solve", req, nil); code != 200 {
		t.Fatalf("warm solve: status %d: %s", code, body)
	}
	before := s.Metrics().Server
	// One hold before the registry and one between artifact acquisition
	// and dispatch, each well past the deadline and each firing once: the
	// two admitted solves keep their slots past every queued deadline.
	for _, point := range []string{"serve.solve.pre", "serve.solve.dispatch"} {
		if err := faultpoint.Arm(point, "delay:400ms#1"); err != nil {
			t.Fatal(err)
		}
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		status int
		retry  string
		resp   SolveResponse
		err    error
	}
	outcomes := make([]outcome, requests)
	var wg sync.WaitGroup
	for i := range outcomes {
		wg.Add(1)
		go func(o *outcome) {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(data))
			if err != nil {
				o.err = err
				return
			}
			defer resp.Body.Close()
			o.status, o.retry = resp.StatusCode, resp.Header.Get("Retry-After")
			if resp.StatusCode == 200 {
				o.err = json.NewDecoder(resp.Body).Decode(&o.resp)
			}
		}(&outcomes[i])
	}
	wg.Wait()

	counts := map[int]int{}
	degraded := 0
	for i, o := range outcomes {
		switch {
		case o.err != nil:
			t.Fatalf("request %d: %v", i, o.err)
		case o.status == 200:
			if !o.resp.Degraded || len(o.resp.Plan) == 0 {
				t.Errorf("request %d: 200 with degraded=%v and %d-piece plan, want a degraded incumbent", i, o.resp.Degraded, len(o.resp.Plan))
			}
			degraded++
		case o.status == 429 || o.status == 503:
			if o.retry == "" {
				t.Errorf("request %d: %d without Retry-After", i, o.status)
			}
		default:
			t.Errorf("request %d: status %d, want 200, 429 or 503", i, o.status)
		}
		counts[o.status]++
	}
	for _, status := range []int{200, 429, 503} {
		if counts[status] == 0 {
			t.Errorf("no %d in the burst (outcomes %v)", status, counts)
		}
	}
	after := s.Metrics().Server
	if shed := int64(counts[429] + counts[503]); after.ShedTotal-before.ShedTotal != shed {
		t.Errorf("shed_total grew by %d, clients saw %d sheds", after.ShedTotal-before.ShedTotal, shed)
	}
	if after.DegradedSolves-before.DegradedSolves != int64(degraded) {
		t.Errorf("degraded_solves grew by %d, clients saw %d degraded solves", after.DegradedSolves-before.DegradedSolves, degraded)
	}
	if after.PanicsTotal != 0 {
		t.Errorf("panics_total = %d", after.PanicsTotal)
	}
}

// A solve whose deadline expires mid-request degrades gracefully: 200
// with degraded=true and a valid incumbent, not a 500 or an empty plan.
func TestDeadlineDegradesSolve(t *testing.T) {
	defer faultpoint.Reset()
	s := testServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := SolveRequest{Campaign: testCampaign(0, 1), Method: "babp", K: 3, Theta: 400}
	var warm SolveResponse
	if code, body := postJSON(t, ts, "/v1/solve", req, &warm); code != 200 {
		t.Fatalf("warm solve: status %d: %s", code, body)
	}

	// The artifact is prepared; burn the deadline between artifact
	// acquisition and solver dispatch so BAB starts with Stop fired and
	// returns its root incumbent.
	if err := faultpoint.Arm("serve.solve.dispatch", "delay:80ms"); err != nil {
		t.Fatal(err)
	}
	req.TimeoutMS = 40
	var resp SolveResponse
	if code, body := postJSON(t, ts, "/v1/solve", req, &resp); code != 200 {
		t.Fatalf("degraded solve: status %d: %s", code, body)
	}
	if !resp.Degraded {
		t.Fatal("expiring solve not marked degraded")
	}
	if resp.Utility <= 0 {
		t.Fatalf("degraded solve returned no incumbent: utility %v", resp.Utility)
	}
	if len(resp.Plan) == 0 {
		t.Fatal("degraded solve returned no plan")
	}
	// The incumbent is evaluated exactly; the upper bound sums the hull
	// table's interpolated values in another order, so allow it to
	// undercut the incumbent by FP noise but nothing more.
	if resp.Upper < resp.Utility-1e-9*resp.Utility {
		t.Fatalf("degraded upper bound %v below incumbent %v", resp.Upper, resp.Utility)
	}
	if m := s.Metrics(); m.Server.DegradedSolves < 1 {
		t.Fatalf("degraded_solves = %d, want >= 1", m.Server.DegradedSolves)
	}
}

// TestDeadlineAbortsSimulate: a simulate's timeout_ms bounds the
// simulation itself, not only its admission wait. A request for the
// server's cap of runs with a 50 ms deadline is shed with 503 +
// Retry-After long before the runs would have finished, and its
// admission slot is free for the next simulate at once.
func TestDeadlineAbortsSimulate(t *testing.T) {
	s := testServer(t, func(c *Config) { c.AdmitCapacity = weightSimulate })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g, _ := testGraph(t)
	camp := testCampaign(0, 1)
	plan := [][]int32{{0, 1, 2}, {3, 4}}
	probs := [][]float64{g.PieceProbs(camp.Pieces[0].Dist), g.PieceProbs(camp.Pieces[1].Dist)}
	const probe = 20_000
	start := time.Now()
	if _, err := cascade.EstimateAdoption(context.Background(), g, probs, plan, logistic.Model{Alpha: 2, Beta: 1}, probe, 1); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start) * time.Duration(s.cfg.MaxSimRuns/probe)

	req := SimulateRequest{Campaign: camp, Plan: plan, Runs: s.cfg.MaxSimRuns, TimeoutMS: 50}
	start = time.Now()
	code, retry, body := postRaw(t, ts, "/v1/simulate", req)
	elapsed := time.Since(start)
	if code != 503 || retry == "" {
		t.Fatalf("expired simulate: status %d, Retry-After %q (want 503 and a value): %s", code, retry, body)
	}
	if m := s.Metrics(); m.Server.ShedTotal != 1 {
		t.Fatalf("shed_total = %d after one expired simulate, want 1", m.Server.ShedTotal)
	}
	if elapsed > full/4 {
		t.Fatalf("expired simulate answered after %v; its %d runs take ~%v", elapsed, req.Runs, full)
	}
	// The admission semaphore holds one simulate: the next one is
	// admitted only if the expired one let go of its slot.
	req.Runs, req.TimeoutMS = 100, 1000
	if code, _, body := postRaw(t, ts, "/v1/simulate", req); code != 200 {
		t.Fatalf("simulate after an expired one: status %d: %s", code, body)
	}
	if elapsed := time.Since(start); elapsed > full/4 {
		t.Fatalf("two simulates took %v; the first one's runs alone take ~%v", elapsed, full)
	}
}

// A panic inside a handler is contained by the recover middleware: the
// panicking request gets a 500, the server keeps serving.
func TestPanicInHandlerIsContained(t *testing.T) {
	defer faultpoint.Reset()
	s := testServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if err := faultpoint.Arm("serve.solve.pre", "panic#1"); err != nil {
		t.Fatal(err)
	}
	req := SolveRequest{Campaign: testCampaign(0, 1), Method: "greedy", K: 2, Theta: 400}
	code, _, body := postRaw(t, ts, "/v1/solve", req)
	if code != 500 {
		t.Fatalf("panicked solve: status %d (want 500): %s", code, body)
	}
	if m := s.Metrics(); m.Server.PanicsTotal < 1 {
		t.Fatalf("panics_total = %d, want >= 1", m.Server.PanicsTotal)
	}
	if code, _, body := postRaw(t, ts, "/v1/solve", req); code != 200 {
		t.Fatalf("solve after contained panic: status %d: %s", code, body)
	}
}

// The poison-safety contract: a panic mid-growth fails its request and
// poisons the entry, the published snapshot keeps serving unchanged, and
// the next growth request re-prepares.
func TestChaosPanicMidGrowthLeavesSnapshotServing(t *testing.T) {
	lifecycle(t, 8, "miss poison hit reprepare", req(0, 400, 1), req(0, 800, 1).with(extendPanic), req(0, 400, 1), req(0, 800, 1))
}

// A panic in an entry's first preparation fails only the request whose
// build hit it: the entry is dropped, the identical solves queued behind
// that build go back through the registry, prepare the entry once more
// between them and answer with one plan, and that preparation is cached.
func TestChaosPanicInFirstPrepare(t *testing.T) {
	defer faultpoint.Reset()
	const clients = 4
	s := testServer(t, func(c *Config) { c.AdmitCapacity = clients * weightSolve })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	req := SolveRequest{Campaign: testCampaign(0, 1), Method: "babp", K: 3, Theta: 800}

	// Queue every solve behind one build: insert the entry unpublished and
	// hold its grow slot until all of them wait on it.
	e := newEntry(instanceKey{campaign: campaignKey(req.Campaign), seed: 1}, 0)
	s.reg.mu.Lock()
	s.reg.entries[e.key] = e
	s.reg.mu.Unlock()
	e.grow <- struct{}{}
	if err := faultpoint.Arm("registry.prepare", "panic#1"); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		status int
		resp   SolveResponse
		err    error
	}
	outcomes := make([]outcome, clients)
	var wg sync.WaitGroup
	for i := range outcomes {
		wg.Add(1)
		go func(o *outcome) {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(data))
			if err != nil {
				o.err = err
				return
			}
			defer resp.Body.Close()
			o.status = resp.StatusCode
			if resp.StatusCode == 200 {
				o.err = json.NewDecoder(resp.Body).Decode(&o.resp)
			}
		}(&outcomes[i])
	}
	waitFor(t, "solves queued on the entry", func() bool { return s.m.singleflightWaits.Load() == clients })
	<-e.grow
	wg.Wait()

	var served []SolveResponse
	for i, o := range outcomes {
		switch {
		case o.err != nil:
			t.Fatalf("solve %d: %v", i, o.err)
		case o.status == 200:
			served = append(served, o.resp)
		case o.status != 500:
			t.Fatalf("solve %d: status %d", i, o.status)
		}
	}
	if len(served) != clients-1 {
		t.Fatalf("%d of %d solves failed, want 1", clients-len(served), clients)
	}
	for _, r := range served[1:] {
		if r.Utility != served[0].Utility || !samePlan(r.Plan, served[0].Plan) {
			t.Fatalf("identical solves answered differently: %v/%v vs %v/%v", r.Utility, r.Plan, served[0].Utility, served[0].Plan)
		}
	}
	m := s.Metrics()
	if m.Server.PanicsTotal != 1 {
		t.Fatalf("panics_total = %d, want 1", m.Server.PanicsTotal)
	}
	var again SolveResponse
	if code, body := postJSON(t, ts, "/v1/solve", req, &again); code != 200 || !again.CacheHit {
		t.Fatalf("solve after the burst: status %d, cache hit %v: %s", code, again.CacheHit, body)
	}
	if got := s.Metrics().Registry.Prepares; got != m.Registry.Prepares {
		t.Fatalf("prepares %d → %d: the burst's preparation was not cached", m.Registry.Prepares, got)
	}
}

func samePlan(a, b [][]int32) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		if len(a[j]) != len(b[j]) {
			return false
		}
		for i := range a[j] {
			if a[j][i] != b[j][i] {
				return false
			}
		}
	}
	return true
}

// Shutdown drains gracefully: readiness flips, new heavy work is
// refused with 503, the in-flight request completes normally, and
// Shutdown returns nil within the grace.
func TestShutdownDrain(t *testing.T) {
	defer faultpoint.Reset()
	s := testServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code := getJSON(t, ts, "/readyz", nil); code != 200 {
		t.Fatalf("readyz before drain: %d", code)
	}

	if err := faultpoint.Arm("serve.solve.pre", "delay:300ms"); err != nil {
		t.Fatal(err)
	}
	req := SolveRequest{Campaign: testCampaign(0, 1), Method: "greedy", K: 2, Theta: 400}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if code, _, body := postRaw(t, ts, "/v1/solve", req); code != 200 {
			t.Errorf("in-flight solve during drain: status %d: %s", code, body)
		}
	}()
	waitFor(t, "solve in flight", func() bool { return s.inflight.inflight() == 1 })

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()
	waitFor(t, "draining state", s.inflight.isDraining)

	if code := getJSON(t, ts, "/readyz", nil); code != 503 {
		t.Fatalf("readyz during drain: %d (want 503)", code)
	}
	code, retry, body := postRaw(t, ts, "/v1/solve", req)
	if code != 503 {
		t.Fatalf("new solve during drain: status %d (want 503): %s", code, body)
	}
	if retry == "" {
		t.Fatal("draining response missing Retry-After")
	}

	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	if m := s.Metrics(); !m.Server.Draining {
		t.Fatal("draining gauge not set after shutdown")
	}
}

// A server starts no goroutine of its own: after traffic through every
// registry outcome and every heavy endpoint, Shutdown plus closing the
// listener brings the goroutine count back to what it was before New.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	s := testServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	camp := testCampaign(0, 1)

	for _, tc := range []struct {
		name  string
		theta int
		ok    func(SolveResponse) bool
	}{
		{"miss", 300, func(r SolveResponse) bool { return !r.CacheHit && !r.Extended }},
		{"extend", 600, func(r SolveResponse) bool { return r.Extended }},
		{"prefix", 300, func(r SolveResponse) bool { return r.PrefixHit }},
	} {
		var resp SolveResponse
		req := SolveRequest{Campaign: camp, Method: "greedy", K: 2, Theta: tc.theta}
		if code, raw := postJSON(t, ts, "/v1/solve", req, &resp); code != 200 || !tc.ok(resp) {
			t.Fatalf("%s solve: status %d: %s", tc.name, code, raw)
		}
	}
	plan := [][]int32{{s.cfg.Pool[0]}, {s.cfg.Pool[1]}}
	if code, raw := postJSON(t, ts, "/v1/estimate", EstimateRequest{Campaign: camp, Plan: plan, Theta: 600}, nil); code != 200 {
		t.Fatalf("estimate: status %d: %s", code, raw)
	}
	if code, raw := postJSON(t, ts, "/v1/simulate", SimulateRequest{Campaign: camp, Plan: plan, Runs: 100}, nil); code != 200 {
		t.Fatalf("simulate: status %d: %s", code, raw)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	ts.Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after shutdown, %d before New:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
