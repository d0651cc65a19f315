package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"oipa/internal/faultpoint"
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
	wg.Wait()
	if m := s.Metrics(); m.Server.ShedTotal < 1 {
		t.Fatalf("shed_total = %d, want >= 1", m.Server.ShedTotal)
	}
}

// A burst of identical solves far past admission capacity, each admitted
// solve held past its own deadline, gets exactly three answers: the one
// solve that runs degrades to its incumbent (200, degraded); the admitted
// requests coalesced onto it outlive their deadline waiting (503); the
// rest overflow the queue or expire in it (429). Every shed carries
// Retry-After, and /metrics counts exactly what the clients saw.
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
	// The hold sits between artifact acquisition and dispatch, well past
	// the deadline, so no request can outlive the solve it coalesced onto.
	if err := faultpoint.Arm("serve.solve.dispatch", "delay:400ms"); err != nil {
		t.Fatal(err)
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
			if !o.resp.Coalesced { // a coalesced copy is a response, not a solve
				degraded++
			}
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
	// The incumbent is evaluated exactly; the upper bound comes through
	// the tangent-table machinery (bisection tolerance 1e-13), so allow
	// it to undercut the incumbent by FP noise but nothing more.
	if resp.Upper < resp.Utility-1e-9*resp.Utility {
		t.Fatalf("degraded upper bound %v below incumbent %v", resp.Upper, resp.Utility)
	}
	if m := s.Metrics(); m.Server.DegradedSolves < 1 {
		t.Fatalf("degraded_solves = %d, want >= 1", m.Server.DegradedSolves)
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

// The poison-safety contract: a panic mid-growth must 500 the request
// that hit it, leave the last published snapshot serving bit-identical
// answers, and heal on the next growth request via a full re-prepare
// whose results match a fresh server exactly.
func TestChaosPanicMidGrowthLeavesSnapshotServing(t *testing.T) {
	defer faultpoint.Reset()
	s := testServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	camp := testCampaign(0, 1)
	at400 := SolveRequest{Campaign: camp, Method: "babp", K: 3, Theta: 400}
	at800 := SolveRequest{Campaign: camp, Method: "babp", K: 3, Theta: 800}

	var before SolveResponse
	if code, body := postJSON(t, ts, "/v1/solve", at400, &before); code != 200 {
		t.Fatalf("prepare solve: status %d: %s", code, body)
	}

	// Growth to θ=800 panics inside the core extend path.
	if err := faultpoint.Arm("core.extend.mid", "panic#1"); err != nil {
		t.Fatal(err)
	}
	code, _, body := postRaw(t, ts, "/v1/solve", at800)
	if code != 500 {
		t.Fatalf("poisoned growth: status %d (want 500): %s", code, body)
	}
	if !strings.Contains(body, "panic") {
		t.Fatalf("poisoned growth error does not mention the panic: %s", body)
	}
	m := s.Metrics()
	if m.Server.PanicsTotal < 1 {
		t.Fatalf("panics_total = %d, want >= 1", m.Server.PanicsTotal)
	}

	// The published θ=400 snapshot still serves, bit-identical.
	var after SolveResponse
	if code, body := postJSON(t, ts, "/v1/solve", at400, &after); code != 200 {
		t.Fatalf("solve after poisoning: status %d: %s", code, body)
	}
	if after.Utility != before.Utility || !samePlan(after.Plan, before.Plan) {
		t.Fatalf("poisoned entry drifted: %v/%v vs %v/%v",
			after.Utility, after.Plan, before.Utility, before.Plan)
	}

	// The next growth request heals the entry with a full re-prepare.
	var healed SolveResponse
	if code, body := postJSON(t, ts, "/v1/solve", at800, &healed); code != 200 {
		t.Fatalf("healing solve: status %d: %s", code, body)
	}
	m = s.Metrics()
	if m.Registry.Reprepares != 1 {
		t.Fatalf("reprepares = %d, want 1", m.Registry.Reprepares)
	}

	// And the healed artifact answers exactly like a server that never
	// saw the fault.
	fresh := testServer(t, nil)
	tsf := httptest.NewServer(fresh.Handler())
	defer tsf.Close()
	var want SolveResponse
	if code, body := postJSON(t, tsf, "/v1/solve", at800, &want); code != 200 {
		t.Fatalf("fresh solve: status %d: %s", code, body)
	}
	if healed.Utility != want.Utility || !samePlan(healed.Plan, want.Plan) {
		t.Fatalf("re-prepared artifact drifted from fresh prepare: %v/%v vs %v/%v",
			healed.Utility, healed.Plan, want.Utility, want.Plan)
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

// A panic inside an async job fails that job only: the worker survives
// and the next submission completes.
func TestJobPanicIsolated(t *testing.T) {
	defer faultpoint.Reset()
	s := testServer(t, func(c *Config) { c.Workers = 1 })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if err := faultpoint.Arm("serve.solve.pre", "panic#1"); err != nil {
		t.Fatal(err)
	}
	req := SolveRequest{Campaign: testCampaign(0, 1), Method: "greedy", K: 2, Theta: 400, Async: true}
	var sub struct {
		Job string `json:"job"`
	}
	if code, body := postJSON(t, ts, "/v1/solve", req, &sub); code != 202 {
		t.Fatalf("submit: status %d: %s", code, body)
	}
	waitFor(t, "panicked job to fail", func() bool {
		st, err := s.jobs.status(sub.Job)
		return err == nil && st.State == JobFailed
	})
	st, err := s.jobs.status(sub.Job)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(st.Error, "panic") {
		t.Fatalf("failed job error does not mention the panic: %q", st.Error)
	}

	// The single worker survived: the next job runs to completion.
	if code, body := postJSON(t, ts, "/v1/solve", req, &sub); code != 202 {
		t.Fatalf("second submit: status %d: %s", code, body)
	}
	waitFor(t, "follow-up job to finish", func() bool {
		st, err := s.jobs.status(sub.Job)
		return err == nil && st.State == JobDone
	})
	if m := s.Metrics(); m.Server.PanicsTotal < 1 {
		t.Fatalf("panics_total = %d, want >= 1", m.Server.PanicsTotal)
	}
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

// Shutdown cancels the queued async backlog but lets the running job
// retire with its incumbent.
func TestShutdownCancelsQueuedJobs(t *testing.T) {
	defer faultpoint.Reset()
	s := testServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 4
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if err := faultpoint.Arm("serve.solve.pre", "delay:200ms"); err != nil {
		t.Fatal(err)
	}
	req := SolveRequest{Campaign: testCampaign(0, 1), Method: "greedy", K: 2, Theta: 400, Async: true}
	ids := make([]string, 0, 3)
	for i := 0; i < 3; i++ {
		var sub struct {
			Job string `json:"job"`
		}
		if code, body := postJSON(t, ts, "/v1/solve", req, &sub); code != 202 {
			t.Fatalf("submit %d: status %d: %s", i, code, body)
		}
		ids = append(ids, sub.Job)
	}
	waitFor(t, "first job running", func() bool {
		st, err := s.jobs.status(ids[0])
		return err == nil && st.State != JobQueued
	})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	canceled := 0
	for _, id := range ids {
		st, err := s.jobs.status(id)
		if err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case JobCanceled:
			canceled++
		case JobDone:
		default:
			t.Fatalf("job %s left in state %s after drain", id, st.State)
		}
	}
	if canceled == 0 {
		t.Fatal("no queued job was canceled by the drain")
	}
}

// The background governor reclaims an idle-over-budget registry without
// any request traffic driving it.
func TestBackgroundGovernorTick(t *testing.T) {
	s := testServer(t, func(c *Config) {
		c.MemBudget = 1 // everything is over budget
		c.MemTick = 5 * time.Millisecond
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := SolveRequest{Campaign: testCampaign(0, 1), Method: "greedy", K: 2, Theta: 400}
	if code, _, body := postRaw(t, ts, "/v1/solve", req); code != 200 {
		t.Fatalf("solve: status %d: %s", code, body)
	}
	// Two idle ticks age the entry's demand out; the next evicts it.
	waitFor(t, "background reclaim to evict the idle artifact", func() bool {
		m := s.Metrics()
		return m.Registry.ReclaimsBackground >= 1 && m.Registry.ResidentBytes == 0 && m.Registry.Instances == 0
	})
}
