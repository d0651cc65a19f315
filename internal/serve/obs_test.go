package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"oipa/internal/obs"
)

// waitJob polls a job until it reaches a terminal state.
func waitJob(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		if code := getJSON(t, ts, "/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("job poll status %d", code)
		}
		switch st.State {
		case JobDone, JobFailed, JobCanceled:
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job did not finish")
	return JobStatus{}
}

// A ?debug=trace solve must return its span tree inline: root named
// after the endpoint, with the admission wait, the registry work (a
// "prepare" child on the miss), and the solver dispatch as children —
// each with sensible durations.
func TestSolveDebugTraceSpans(t *testing.T) {
	s := testServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var resp SolveResponse
	code, raw := postJSON(t, ts, "/v1/solve?debug=trace", SolveRequest{
		Campaign: testCampaign(0, 1), K: 2, Theta: 300,
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("solve status %d: %s", code, raw)
	}
	if resp.RequestID == "" {
		t.Fatal("no request id on traced solve")
	}
	tr := resp.Trace
	if tr == nil {
		t.Fatalf("no trace on ?debug=trace solve: %s", raw)
	}
	if tr.TraceID != resp.RequestID {
		t.Fatalf("trace id %q != request id %q", tr.TraceID, resp.RequestID)
	}
	if tr.Name != "solve" {
		t.Fatalf("root span %q, want solve", tr.Name)
	}
	for _, name := range []string{"admit", "registry", "solve.babp"} {
		sp := tr.Find(name)
		if sp == nil {
			t.Fatalf("span %q missing from trace %s", name, raw)
		}
		if sp.DurUS < 0 || sp.StartUS < 0 {
			t.Fatalf("span %q has negative timing: start=%d dur=%d", name, sp.StartUS, sp.DurUS)
		}
	}
	// First request is a miss: the registry span must contain the
	// preparation.
	reg := tr.Find("registry")
	if reg.Find("prepare") == nil {
		t.Fatalf("registry span has no prepare child on a miss: %s", raw)
	}
	// The solver span should account for real work on this instance.
	if sv := tr.Find("solve.babp"); sv.DurUS == 0 && resp.SolveMS >= 1 {
		t.Fatalf("solver span empty while solve took %vms", resp.SolveMS)
	}

	// A second identical request hits the cache: no prepare child.
	var resp2 SolveResponse
	code, raw = postJSON(t, ts, "/v1/solve?debug=trace", SolveRequest{
		Campaign: testCampaign(0, 1), K: 2, Theta: 300,
	}, &resp2)
	if code != http.StatusOK {
		t.Fatalf("second solve status %d: %s", code, raw)
	}
	if !resp2.CacheHit {
		t.Fatalf("second solve not a cache hit: %s", raw)
	}
	if resp2.Trace.Find("prepare") != nil {
		t.Fatalf("cache-hit trace still shows a prepare span: %s", raw)
	}
}

// An estimate traced with ?debug=trace reports which estimator ran as a
// span ("estimate.exact" without sketches).
func TestEstimateDebugTrace(t *testing.T) {
	s := testServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var resp EstimateResponse
	code, raw := postJSON(t, ts, "/v1/estimate?debug=trace", EstimateRequest{
		Campaign: testCampaign(0), Plan: [][]int32{{1, 2}}, Theta: 200,
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("estimate status %d: %s", code, raw)
	}
	if resp.Trace == nil || resp.Trace.Find("estimate.exact") == nil {
		t.Fatalf("traced estimate missing estimate.exact span: %s", raw)
	}
	if resp.Trace.Find("registry") == nil {
		t.Fatalf("traced estimate missing registry span: %s", raw)
	}
}

// An async submission with ?debug=trace must keep the submitting
// request's id as the job's trace root: the job result carries both the
// request id and a span tree under that SAME trace id.
func TestAsyncJobKeepsRootTraceID(t *testing.T) {
	s := testServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var accepted struct {
		Job       string `json:"job"`
		RequestID string `json:"request_id"`
	}
	code, raw := postJSON(t, ts, "/v1/solve?debug=trace", SolveRequest{
		Campaign: testCampaign(1), K: 2, Theta: 200, Async: true,
	}, &accepted)
	if code != http.StatusAccepted {
		t.Fatalf("async submit status %d: %s", code, raw)
	}
	if accepted.RequestID == "" {
		t.Fatal("202 response missing request_id")
	}
	st := waitJob(t, ts, accepted.Job)
	if st.State != JobDone {
		t.Fatalf("job state %q (err %q)", st.State, st.Error)
	}
	if st.Result.RequestID != accepted.RequestID {
		t.Fatalf("job result request id %q != submission id %q", st.Result.RequestID, accepted.RequestID)
	}
	if st.Result.Trace == nil {
		t.Fatal("traced async job has no span tree in its result")
	}
	if st.Result.Trace.TraceID != accepted.RequestID {
		t.Fatalf("async trace id %q != submission request id %q", st.Result.Trace.TraceID, accepted.RequestID)
	}
	if st.Result.Trace.Find("solve.babp") == nil {
		t.Fatal("async trace missing solver span")
	}
}

// After traffic, the /metrics JSON must carry populated latency and
// registry-phase histograms and nonzero solver-work aggregates.
func TestMetricsLatencyAndSolverAggregates(t *testing.T) {
	s := testServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		var resp SolveResponse
		if code, raw := postJSON(t, ts, "/v1/solve", SolveRequest{
			Campaign: testCampaign(0, 2), K: 2, Theta: 300,
		}, &resp); code != http.StatusOK {
			t.Fatalf("solve status %d: %s", code, raw)
		}
	}
	var er EstimateResponse
	if code, raw := postJSON(t, ts, "/v1/estimate", EstimateRequest{
		Campaign: testCampaign(0, 2), Plan: [][]int32{{1}, {2}}, Theta: 300,
	}, &er); code != http.StatusOK {
		t.Fatalf("estimate status %d: %s", code, raw)
	}

	snap := s.Metrics()
	if snap.Latency.Solve.Count != 3 {
		t.Fatalf("solve latency count = %d, want 3", snap.Latency.Solve.Count)
	}
	if snap.Latency.Solve.P50MS <= 0 || snap.Latency.Solve.P99MS < snap.Latency.Solve.P50MS {
		t.Fatalf("implausible solve quantiles: p50=%v p99=%v", snap.Latency.Solve.P50MS, snap.Latency.Solve.P99MS)
	}
	if len(snap.Latency.Solve.Buckets) == 0 {
		t.Fatal("solve latency has no buckets")
	}
	if snap.Latency.Estimate.Count != 1 {
		t.Fatalf("estimate latency count = %d, want 1", snap.Latency.Estimate.Count)
	}
	if snap.Latency.AdmitWait.Count == 0 {
		t.Fatal("admission wait histogram empty")
	}
	if snap.Registry.Phase.Prepare.Count == 0 {
		t.Fatal("prepare phase histogram empty after a miss")
	}
	// Tiny instances can terminate at the root (zero expansions), but
	// every solve pays at least one bound evaluation.
	if snap.Solver.BoundEvals == 0 {
		t.Fatalf("solver aggregates empty: nodes=%d bound=%d", snap.Solver.Nodes, snap.Solver.BoundEvals)
	}
	if snap.Runtime.Goroutines == 0 || snap.Runtime.HeapAllocBytes == 0 {
		t.Fatal("runtime block empty")
	}

	// The per-response stats must sum into the aggregate consistently:
	// one more solve adds exactly its own counters.
	before := snap.Solver.BoundEvals
	var resp SolveResponse
	if code, raw := postJSON(t, ts, "/v1/solve", SolveRequest{
		Campaign: testCampaign(0, 2), K: 2, Theta: 300,
	}, &resp); code != http.StatusOK {
		t.Fatalf("solve status %d: %s", code, raw)
	}
	after := s.Metrics().Solver.BoundEvals
	if after-before != int64(resp.Stats.BoundEvals) {
		t.Fatalf("aggregate delta %d != response bound evals %d", after-before, resp.Stats.BoundEvals)
	}
}

// /metrics?format=prometheus must be a syntactically plausible 0.0.4
// exposition: TYPE lines once per family, cumulative histogram buckets
// ending at +Inf, and every counter family present.
func TestPrometheusExposition(t *testing.T) {
	s := testServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var resp SolveResponse
	if code, raw := postJSON(t, ts, "/v1/solve", SolveRequest{
		Campaign: testCampaign(0), K: 2, Theta: 200,
	}, &resp); code != http.StatusOK {
		t.Fatalf("solve status %d: %s", code, raw)
	}

	r, err := ts.Client().Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	for _, want := range []string{
		"# TYPE oipa_requests_total counter",
		`oipa_requests_total{endpoint="solve"} 1`,
		"# TYPE oipa_request_latency_seconds histogram",
		`oipa_request_latency_seconds_bucket{endpoint="solve",le="+Inf"} 1`,
		`oipa_request_latency_seconds_count{endpoint="solve"} 1`,
		"# TYPE oipa_registry_phase_seconds histogram",
		"# TYPE oipa_solver_nodes_total counter",
		"# TYPE oipa_go_goroutines gauge",
		"oipa_registry_resident_bytes",
		"oipa_admission_wait_seconds_count",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// TYPE declared exactly once per family.
	seen := map[string]int{}
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			seen[line]++
		}
	}
	for line, n := range seen {
		if n != 1 {
			t.Errorf("%q declared %d times", line, n)
		}
	}
	// Histogram buckets must be cumulative: each solve bucket count is
	// non-decreasing in file order (same label order as emitted).
	var last uint64
	var buckets int
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, `oipa_request_latency_seconds_bucket{endpoint="solve"`) {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseUint(fields[len(fields)-1], 10, 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("bucket series not cumulative at %q", line)
		}
		last = v
		buckets++
	}
	if buckets == 0 {
		t.Fatal("no solve latency buckets in exposition")
	}
}

// Sampling: with TraceSample=1 every request is traced — the span tree
// goes to the structured log, not the response body.
func TestTraceSamplingToLog(t *testing.T) {
	var logBuf bytes.Buffer
	s := testServer(t, func(c *Config) {
		c.TraceSample = 1.0
		c.Logger = slog.New(slog.NewJSONHandler(&logBuf, nil))
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var resp SolveResponse
	if code, raw := postJSON(t, ts, "/v1/solve", SolveRequest{
		Campaign: testCampaign(2), K: 2, Theta: 200,
	}, &resp); code != http.StatusOK {
		t.Fatalf("solve status %d: %s", code, raw)
	}
	if resp.Trace != nil {
		t.Fatal("sampled (non-debug) request returned its trace inline")
	}
	if resp.RequestID == "" {
		t.Fatal("no request id")
	}
	if got := s.Metrics().Server.TracedRequests; got != 1 {
		t.Fatalf("traced_requests = %d, want 1", got)
	}
	var rec struct {
		Msg       string        `json:"msg"`
		RequestID string        `json:"request_id"`
		Endpoint  string        `json:"endpoint"`
		Status    int           `json:"status"`
		Theta     int           `json:"theta"`
		Method    string        `json:"method"`
		Campaign  string        `json:"campaign"`
		Trace     *obs.SpanTree `json:"trace"`
	}
	if err := json.Unmarshal(logBuf.Bytes(), &rec); err != nil {
		t.Fatalf("request log is not one JSON record: %v\n%s", err, logBuf.String())
	}
	if rec.RequestID != resp.RequestID || rec.Endpoint != "solve" || rec.Status != 200 {
		t.Fatalf("log record mismatch: %+v", rec)
	}
	if rec.Theta != 200 || rec.Method != "babp" || rec.Campaign == "" {
		t.Fatalf("log record missing request labels: %+v", rec)
	}
	if rec.Trace == nil || rec.Trace.TraceID != resp.RequestID {
		t.Fatalf("sampled trace not in log: %+v", rec)
	}
}

// The slow-request threshold marks requests in both the counter and the
// log level.
func TestSlowRequestLog(t *testing.T) {
	var logBuf bytes.Buffer
	s := testServer(t, func(c *Config) {
		c.SlowRequest = time.Nanosecond // everything is slow
		c.Logger = slog.New(slog.NewJSONHandler(&logBuf, nil))
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var resp SolveResponse
	if code, raw := postJSON(t, ts, "/v1/solve", SolveRequest{
		Campaign: testCampaign(0), K: 2, Theta: 200,
	}, &resp); code != http.StatusOK {
		t.Fatalf("solve status %d: %s", code, raw)
	}
	if got := s.Metrics().Server.SlowRequests; got != 1 {
		t.Fatalf("slow_requests = %d, want 1", got)
	}
	var rec struct {
		Level string `json:"level"`
		Msg   string `json:"msg"`
		Slow  bool   `json:"slow"`
	}
	if err := json.Unmarshal(logBuf.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Level != "WARN" || rec.Msg != "slow request" || !rec.Slow {
		t.Fatalf("slow log record: %+v", rec)
	}
}
