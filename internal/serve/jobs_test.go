package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"oipa/internal/faultpoint"
)

// TestAsyncJobLifecycle submits a solve with {"async": true}, polls until
// completion and checks the result matches the synchronous path.
func TestAsyncJobLifecycle(t *testing.T) {
	s := testServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := SolveRequest{Campaign: testCampaign(0, 1), K: 3, Theta: 400}
	var sync SolveResponse
	if code, raw := postJSON(t, ts, "/v1/solve", req, &sync); code != http.StatusOK {
		t.Fatalf("sync solve status %d: %s", code, raw)
	}

	req.Async = true
	var accepted struct {
		Job  string `json:"job"`
		Poll string `json:"poll"`
	}
	code, raw := postJSON(t, ts, "/v1/solve", req, &accepted)
	if code != http.StatusAccepted {
		t.Fatalf("async solve status %d, want 202: %s", code, raw)
	}
	if accepted.Job == "" || accepted.Poll != "/v1/jobs/"+accepted.Job {
		t.Fatalf("unexpected acceptance body: %+v", accepted)
	}

	var st JobStatus
	deadline := time.Now().Add(30 * time.Second)
	for {
		if code := getJSON(t, ts, accepted.Poll, &st); code != http.StatusOK {
			t.Fatalf("poll status %d", code)
		}
		if st.State == JobDone || st.State == JobFailed || st.State == JobCanceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.State != JobDone {
		t.Fatalf("job finished in state %q (error %q)", st.State, st.Error)
	}
	if st.Result == nil || st.Result.Utility != sync.Utility {
		t.Fatalf("async result %+v does not match sync utility %v", st.Result, sync.Utility)
	}
	if !st.Result.CacheHit {
		t.Fatal("async solve of the same request missed the instance cache")
	}
	var list []JobStatus
	if code := getJSON(t, ts, "/v1/jobs", &list); code != http.StatusOK || len(list) != 1 {
		t.Fatalf("job list status %d, %d entries", code, len(list))
	}
	if code := getJSON(t, ts, "/v1/jobs/nope", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job status %d, want 404", code)
	}
}

// blockQueue builds a jobQueue whose run function blocks until released
// or canceled — deterministic scaffolding for cancellation and admission
// tests.
func blockQueue(t *testing.T, workers, depth int) (*jobQueue, chan struct{}) {
	t.Helper()
	var m metrics
	release := make(chan struct{})
	q := newJobQueue(workers, depth, 64, &m)
	q.run = func(j *job) {
		select {
		case <-release:
			q.complete(j, &SolveResponse{Method: "TEST"}, nil)
		case <-j.ctx.Done():
			q.complete(j, nil, nil)
		}
	}
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
		q.close()
	})
	return q, release
}

func waitState(t *testing.T, q *jobQueue, id, want string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := q.status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q, want %q", id, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestJobCancellation(t *testing.T) {
	q, release := blockQueue(t, 1, 4)

	first, err := q.submit(SolveRequest{}, "", false)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, first, JobRunning)

	// A job queued behind the running one cancels without ever starting.
	second, err := q.submit(SolveRequest{}, "", false)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := q.cancelJob(second); err != nil || !ok {
		t.Fatalf("cancel queued job: ok=%v err=%v", ok, err)
	}
	if st, _ := q.status(second); st.State != JobCanceled {
		t.Fatalf("queued job state %q after cancel, want canceled", st.State)
	}

	// Canceling the running job cancels its context; the runner
	// returns and the job lands in canceled.
	if ok, err := q.cancelJob(first); err != nil || !ok {
		t.Fatalf("cancel running job: ok=%v err=%v", ok, err)
	}
	waitState(t, q, first, JobCanceled)

	// Double cancel and cancel-after-finish are no-ops, not errors.
	if ok, err := q.cancelJob(first); err != nil || ok {
		t.Fatalf("second cancel: ok=%v err=%v", ok, err)
	}

	third, err := q.submit(SolveRequest{}, "", false)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, third, JobRunning)
	close(release)
	st := waitState(t, q, third, JobDone)
	if st.Result == nil || st.Result.Method != "TEST" {
		t.Fatalf("unexpected result %+v", st.Result)
	}
	if ok, err := q.cancelJob(third); err != nil || ok {
		t.Fatalf("cancel after done: ok=%v err=%v", ok, err)
	}
}

func TestJobQueueAdmissionControl(t *testing.T) {
	q, _ := blockQueue(t, 1, 2)
	first, err := q.submit(SolveRequest{}, "", false)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, first, JobRunning)
	// Worker busy: the backlog holds exactly `depth` jobs.
	for i := 0; i < 2; i++ {
		if _, err := q.submit(SolveRequest{}, "", false); err != nil {
			t.Fatalf("submit %d within depth: %v", i, err)
		}
	}
	if _, err := q.submit(SolveRequest{}, "", false); err != ErrQueueFull {
		t.Fatalf("submit beyond depth: err=%v, want ErrQueueFull", err)
	}
	if got := q.m.jobsRejected.Load(); got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
}

// TestJobHistoryBounded checks that finished jobs age out of the
// retained history (a long-running server must not accumulate result
// plans without bound) and that submissions after close are refused.
func TestJobHistoryBounded(t *testing.T) {
	var m metrics
	q := newJobQueue(1, 8, 3, &m)
	release := make(chan struct{})
	close(release) // runner completes immediately
	q.run = func(j *job) { q.complete(j, &SolveResponse{Method: "TEST"}, nil) }

	var ids []string
	for i := 0; i < 5; i++ {
		id, err := q.submit(SolveRequest{}, "", false)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		waitState(t, q, id, JobDone)
	}
	if got := len(q.list()); got != 3 {
		t.Fatalf("history holds %d jobs, want 3", got)
	}
	for _, id := range ids[:2] {
		if _, err := q.status(id); err == nil {
			t.Fatalf("evicted job %s still polls", id)
		}
	}
	for _, id := range ids[2:] {
		if st, err := q.status(id); err != nil || st.State != JobDone {
			t.Fatalf("recent job %s unavailable: %v", id, err)
		}
	}

	q.close()
	if _, err := q.submit(SolveRequest{}, "", false); err != ErrClosed {
		t.Fatalf("submit after close: err=%v, want ErrClosed", err)
	}
}

// TestQueueFullSurfacesAs503 checks the HTTP mapping of admission
// control.
func TestQueueFullSurfacesAs503(t *testing.T) {
	s := testServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 1
	})
	// Swap in a blocking runner so the worker and the single backlog slot
	// stay occupied deterministically.
	release := make(chan struct{})
	defer close(release)
	s.jobs.run = func(j *job) {
		select {
		case <-release:
		case <-j.ctx.Done():
		}
		s.jobs.complete(j, nil, nil)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := SolveRequest{Campaign: testCampaign(0), K: 2, Async: true}
	var accepted struct {
		Job string `json:"job"`
	}
	if code, raw := postJSON(t, ts, "/v1/solve", req, &accepted); code != http.StatusAccepted {
		t.Fatalf("first async status %d: %s", code, raw)
	}
	waitState(t, s.jobs, accepted.Job, JobRunning)
	if code, _ := postJSON(t, ts, "/v1/solve", req, nil); code != http.StatusAccepted {
		t.Fatalf("second async (fills backlog) status %d", code)
	}
	if code, raw := postJSON(t, ts, "/v1/solve", req, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("backlog overflow status %d, want 503: %s", code, raw)
	}
}

// TestCancelRunningSolveJob cancels real solve jobs through their
// context — the one cancellation mechanism of the serve tier. A BAB
// solve canceled after it acquired its artifact ends canceled and keeps
// its incumbent (the context's Done channel is the search's Stop hook);
// a job canceled while waiting on another request's preparation leaves
// the registry with an error that is context.Canceled.
func TestCancelRunningSolveJob(t *testing.T) {
	defer faultpoint.Reset()
	s := testServer(t, nil)
	errc := make(chan error, 1)
	s.jobs.run = func(j *job) {
		resp, err := s.solveCoalesced(j.ctx, j.req)
		errc <- err
		s.jobs.complete(j, resp, err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	submit := func(req SolveRequest) string {
		t.Helper()
		req.Async = true
		var accepted struct {
			Job string `json:"job"`
		}
		if code, raw := postJSON(t, ts, "/v1/solve", req, &accepted); code != http.StatusAccepted {
			t.Fatalf("async solve status %d: %s", code, raw)
		}
		return accepted.Job
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	// Solver side: prepare the artifact, then hold the next solve between
	// artifact acquisition and solver dispatch, and cancel it there.
	req := SolveRequest{Campaign: testCampaign(0, 1), Method: "bab", K: 3, Theta: 400}
	if code, raw := postJSON(t, ts, "/v1/solve", req, nil); code != http.StatusOK {
		t.Fatalf("warm solve status %d: %s", code, raw)
	}
	hits := s.Metrics().Registry.InstanceHits
	if err := faultpoint.Arm("serve.solve.dispatch", "delay:150ms#1"); err != nil {
		t.Fatal(err)
	}
	req.K = 4 // a different solve key: no coalescing with the warm solve
	id := submit(req)
	waitFor("the job to acquire its artifact", func() bool { return s.Metrics().Registry.InstanceHits > hits })
	if ok, err := s.jobs.cancelJob(id); err != nil || !ok {
		t.Fatalf("cancel running solve: ok=%v err=%v", ok, err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("canceled solve lost its incumbent: %v", err)
	}
	st := waitState(t, s.jobs, id, JobCanceled)
	if st.Result == nil || st.Result.Utility <= 0 || len(st.Result.Plan) == 0 || !st.Result.Degraded {
		t.Fatalf("canceled job result %+v, want a degraded incumbent", st.Result)
	}

	// Registry side: a sync request owns a slow preparation; a job for the
	// same campaign waits on it and is canceled there.
	if err := faultpoint.Arm("registry.prepare", "delay:300ms#1"); err != nil {
		t.Fatal(err)
	}
	cold := SolveRequest{Campaign: testCampaign(2), Method: "greedy", K: 2, Theta: 400}
	owner := make(chan int, 1)
	body, err := json.Marshal(cold)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			owner <- 0
			return
		}
		resp.Body.Close()
		owner <- resp.StatusCode
	}()
	waitFor("the owner to start preparing", func() bool { return s.Registry().Len() == 2 })
	cold.K = 3
	id = submit(cold)
	waitFor("the job to join the preparation", func() bool { return s.Metrics().Registry.SingleflightWaits == 1 })
	if ok, err := s.jobs.cancelJob(id); err != nil || !ok {
		t.Fatalf("cancel waiting job: ok=%v err=%v", ok, err)
	}
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted registry wait returned %v, want context.Canceled", err)
	}
	waitState(t, s.jobs, id, JobCanceled)
	if code := <-owner; code != http.StatusOK {
		t.Fatalf("owner request status %d", code)
	}
}
