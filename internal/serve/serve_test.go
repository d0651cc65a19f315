package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"oipa/internal/core"
	"oipa/internal/faultpoint"
	"oipa/internal/graph"
	"oipa/internal/logistic"
	"oipa/internal/topic"
	"oipa/internal/xrand"
)

// testGraph builds a deterministic random graph shared by the serve
// tests: 60 nodes, 3 topics, ~400 edges with mixed sparse topic vectors.
func testGraph(t testing.TB) (*graph.Graph, []int32) {
	t.Helper()
	const n, m, z = 60, 400, 3
	r := xrand.New(42)
	b := graph.NewBuilder(n, z)
	added := map[[2]int32]bool{}
	for b.M() < m {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if u == v || added[[2]int32{u, v}] {
			continue
		}
		added[[2]int32{u, v}] = true
		dense := make([]float64, z)
		dense[r.Intn(z)] = 0.2 + 0.6*r.Float64()
		if r.Intn(2) == 0 {
			dense[r.Intn(z)] = 0.1 + 0.4*r.Float64()
		}
		if err := b.AddEdge(u, v, topic.FromDense(dense)); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pool := make([]int32, 0, 12)
	for _, p := range r.Sample(n, 12) {
		pool = append(pool, int32(p))
	}
	return g, pool
}

func testServer(t testing.TB, mutate func(*Config)) *Server {
	t.Helper()
	g, pool := testGraph(t)
	cfg := Config{
		Graph:        g,
		Pool:         pool,
		Model:        logistic.Model{Alpha: 2, Beta: 1},
		DefaultTheta: 400,
		MaxTheta:     5_000,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testCampaign(zs ...int32) topic.Campaign {
	c := topic.Campaign{Name: "test"}
	for i, z := range zs {
		c.Pieces = append(c.Pieces, topic.Piece{
			Name: fmt.Sprintf("piece-%d", i),
			Dist: topic.SingleTopic(z),
		})
	}
	return c
}

func postJSON(t testing.TB, ts *httptest.Server, path string, body interface{}, out interface{}) (int, string) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	code, raw := postBody(t, ts, path, string(data))
	if out != nil && code < 300 {
		if err := json.Unmarshal([]byte(raw), out); err != nil {
			t.Fatalf("decoding %s response %q: %v", path, raw, err)
		}
	}
	return code, raw
}

// postBody posts body byte for byte, for bodies json.Marshal cannot
// produce.
func postBody(t testing.TB, ts *httptest.Server, path, body string) (int, string) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

func getJSON(t testing.TB, ts *httptest.Server, path string, out interface{}) int {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding %s response %q: %v", path, raw, err)
		}
	}
	return resp.StatusCode
}

func TestHealthz(t *testing.T) {
	s := testServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var body struct {
		Status string         `json:"status"`
		Graph  map[string]int `json:"graph"`
		Pool   int            `json:"pool"`
	}
	if code := getJSON(t, ts, "/healthz", &body); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if body.Status != "ok" || body.Graph["n"] != 60 || body.Pool != 12 {
		t.Fatalf("unexpected healthz body: %+v", body)
	}
}

func TestSolveEndpointAndCache(t *testing.T) {
	s := testServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := SolveRequest{Campaign: testCampaign(0, 1), Method: "babp", K: 3, Theta: 400}
	var first SolveResponse
	if code, raw := postJSON(t, ts, "/v1/solve", req, &first); code != http.StatusOK {
		t.Fatalf("solve status %d: %s", code, raw)
	}
	if first.Method != "BAB-P" || first.Utility <= 0 {
		t.Fatalf("unexpected solve result: %+v", first)
	}
	if first.CacheHit {
		t.Fatal("first solve reported a cache hit")
	}
	total := 0
	for _, seeds := range first.Plan {
		total += len(seeds)
	}
	if total == 0 || total > req.K {
		t.Fatalf("plan size %d outside (0, %d]", total, req.K)
	}

	var second SolveResponse
	if code, raw := postJSON(t, ts, "/v1/solve", req, &second); code != http.StatusOK {
		t.Fatalf("second solve status %d: %s", code, raw)
	}
	if !second.CacheHit {
		t.Fatal("second identical solve missed the instance cache")
	}
	if second.SampleMS != 0 {
		t.Fatalf("cached solve reported sample time %v", second.SampleMS)
	}
	if second.Utility != first.Utility {
		t.Fatalf("same request, different utility: %v vs %v", first.Utility, second.Utility)
	}
	snap := s.Metrics()
	if snap.Registry.Prepares != 1 {
		t.Fatalf("prepares = %d, want 1", snap.Registry.Prepares)
	}
	if snap.Registry.InstanceHits != 1 {
		t.Fatalf("instance hits = %d, want 1", snap.Registry.InstanceHits)
	}
}

// hopelessRequests are solve and estimate bodies no preparation can
// serve: the server must refuse them before they wait for admission.
func hopelessRequests() []struct {
	name, path string
	req        any
} {
	camp := testCampaign(0)
	tooMany := testCampaign(make([]int32, core.MaxPieces+1)...)
	return []struct {
		name, path string
		req        any
	}{
		{"negative theta", "/v1/solve", SolveRequest{Campaign: camp, K: 2, Theta: -5}},
		{"negative theta", "/v1/estimate", EstimateRequest{Campaign: camp, Plan: [][]int32{{0}}, Theta: -5}},
		{"bad topic index", "/v1/estimate", EstimateRequest{Campaign: testCampaign(17), Plan: [][]int32{{0}}}},
		{"negative alpha", "/v1/solve", SolveRequest{Campaign: camp, K: 2, Alpha: -1}},
		{"too many pieces", "/v1/solve", SolveRequest{Campaign: tooMany, K: 2}},
		{"too many pieces", "/v1/estimate", EstimateRequest{Campaign: tooMany, Plan: make([][]int32, len(tooMany.Pieces))}},
	}
}

func TestSolveValidation(t *testing.T) {
	s := testServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	camp := testCampaign(0)

	cases := []struct {
		name string
		req  SolveRequest
	}{
		{"unknown method", SolveRequest{Campaign: camp, Method: "annealing", K: 2}},
		{"zero budget", SolveRequest{Campaign: camp, K: 0}},
		{"theta above cap", SolveRequest{Campaign: camp, K: 2, Theta: 100_000}},
		{"empty campaign", SolveRequest{K: 2}},
		{"bad topic index", SolveRequest{Campaign: testCampaign(17), K: 2}},
	}
	for _, tc := range cases {
		if code, _ := postJSON(t, ts, "/v1/solve", tc.req, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
	}
	// Search options no solver accepts are refused at the door, before
	// the registry prepares anything.
	for _, opts := range []string{
		`"method": "babp", "k": 2, "epsilon": -0.5`,
		`"method": "bab", "k": 2, "tolerance": -1`,
		`"method": "bab", "k": 2, "max_nodes": -1`,
	} {
		body := `{"campaign": {"name": "t", "pieces": [{"name": "a", "topics": {"0": 1}}]}, ` + opts + `}`
		if code, raw := postBody(t, ts, "/v1/solve", body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", body, code, raw)
		}
	}
	// There is no job queue: a body asking for one is refused by the
	// strict decoder's unknown-field rule, and the job routes are 404.
	async := `{"campaign": {"name": "t", "pieces": [{"name": "a", "topics": {"0": 1}}]}, "method": "bab", "k": 2, "async": true}`
	if code, raw := postBody(t, ts, "/v1/solve", async); code != http.StatusBadRequest || !strings.Contains(raw, "async") {
		t.Errorf("async: status %d (%s), want 400 naming the field", code, raw)
	}
	for _, tc := range []struct{ method, path string }{
		{http.MethodGet, "/v1/jobs"},
		{http.MethodGet, "/v1/jobs/x"},
		{http.MethodDelete, "/v1/jobs/x"},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", tc.method, tc.path, resp.StatusCode)
		}
	}
	// A request that can never succeed is refused before admission.
	for _, tc := range hopelessRequests() {
		if code, raw := postJSON(t, ts, tc.path, tc.req, nil); code != http.StatusBadRequest {
			t.Errorf("%s %s: status %d (%s), want 400", tc.path, tc.name, code, raw)
		}
	}
	// The server serves one graph: a body selecting layers is refused by
	// the strict decoder, and the error names the field.
	for path, rest := range map[string]string{"/v1/solve": `"method": "bab", "k": 2`, "/v1/estimate": `"plan": [[]]`} {
		body := `{"campaign": {"name": "t", "pieces": [{"name": "a", "topics": {"0": 1}}]}, ` + rest + `, "layers": [0, 1]}`
		if code, raw := postBody(t, ts, path, body); code != http.StatusBadRequest || !strings.Contains(raw, "layers") {
			t.Errorf("%s with layers: status %d (%s), want 400 naming the field", path, code, raw)
		}
	}
	if reg := s.Metrics().Registry; reg.Prepares != 0 || reg.LayoutMisses != 0 {
		t.Errorf("refused solves ran %d preparations and %d layout builds", reg.Prepares, reg.LayoutMisses)
	}
	// A plan with one seed set for a two-piece campaign is refused before
	// admission: no preparation and no layout build.
	two := testCampaign(0, 1)
	for _, tc := range []struct {
		path string
		req  any
	}{
		{"/v1/estimate", EstimateRequest{Campaign: two, Plan: [][]int32{{0}}, Theta: 400}},
		{"/v1/simulate", SimulateRequest{Campaign: two, Plan: [][]int32{{0}}, Runs: 100}},
	} {
		if code, raw := postJSON(t, ts, tc.path, tc.req, nil); code != http.StatusBadRequest {
			t.Errorf("%s with a 1-piece plan: status %d (%s), want 400", tc.path, code, raw)
		}
	}
	if reg := s.Metrics().Registry; reg.Prepares != 0 || reg.LayoutMisses != 0 {
		t.Errorf("refused plans ran %d preparations and %d layout builds", reg.Prepares, reg.LayoutMisses)
	}
	// The search is sequential: a body still asking for search workers is
	// refused, and the error names the field.
	workers := json.RawMessage(`{"campaign": {"name": "t", "pieces": [{"name": "a", "topics": {"0": 1}}]},
		"method": "bab", "k": 2, "solve_workers": 2}`)
	if code, raw := postJSON(t, ts, "/v1/solve", workers, nil); code != http.StatusBadRequest || !strings.Contains(raw, "solve_workers") {
		t.Errorf("solve_workers: status %d (%s), want 400 naming the field", code, raw)
	}
	// A body is one JSON value: a second value or garbage after it is
	// refused, whitespace is not.
	solve := `{"campaign": {"name": "t", "pieces": [{"name": "a", "topics": {"0": 1}}]}, "method": "greedy", "k": 2}`
	estimate := `{"campaign": {"name": "t", "pieces": [{"name": "a", "topics": {"0": 1}}]}, "plan": [[]]}`
	for _, tc := range []struct{ name, path, body string }{
		{"second value", "/v1/solve", solve + ` {"k": 99, "method": "annealing"}`},
		{"garbage", "/v1/solve", solve + ` garbage`},
		{"estimate second value", "/v1/estimate", estimate + `{}`},
	} {
		if code, raw := postBody(t, ts, tc.path, tc.body); code != http.StatusBadRequest || !strings.Contains(raw, "trailing data") {
			t.Errorf("%s: status %d (%s), want 400 naming trailing data", tc.name, code, raw)
		}
	}
	// Campaign JSON is decoded strictly: unknown fields at any level, a
	// non-canonical topic key, one topic spelled twice, and a topic index
	// outside the graph's topic space (which once sized a dense array).
	for _, camp := range []string{
		`{"pieces":[{"name":"p","topics":{"1":1},"typo":5}],"bogus":1}`,
		`{"pieces":[{"name":"p","topics":{"3abc":1}}]}`,
		`{"pieces":[{"name":"p","topics":{"+3":1}}]}`,
		`{"pieces":[{"name":"p","topics":{"03":1}}]}`,
		`{"pieces":[{"name":"p","topics":{" 3":1}}]}`,
		`{"pieces":[{"name":"p","topics":{"3": 0.25, "03": 0.75, "1": 1}}]}`,
		`{"pieces":[{"name":"p","topics":{"20000000": 1}}]}`,
		`{"pieces":[{"name":"p","topics":{"2000000000": 1}}]}`,
	} {
		for path, rest := range map[string]string{"/v1/solve": `"method": "greedy", "k": 2`, "/v1/estimate": `"plan": [[]]`} {
			if code, raw := postBody(t, ts, path, `{"campaign": `+camp+`, `+rest+`}`); code != http.StatusBadRequest {
				t.Errorf("%s with campaign %s: status %d (%s), want 400", path, camp, code, raw)
			}
		}
	}
	for _, tc := range []struct{ path, body string }{{"/v1/solve", solve + " \n\t\n"}, {"/v1/estimate", estimate + "\n"}} {
		if code, raw := postBody(t, ts, tc.path, tc.body); code != http.StatusOK {
			t.Errorf("%s with trailing whitespace: status %d (%s), want 200", tc.path, code, raw)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/solve status %d, want 405", resp.StatusCode)
	}
}

func TestEstimateMatchesSolveUtility(t *testing.T) {
	s := testServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	camp := testCampaign(0, 1, 2)
	var solved SolveResponse
	if code, raw := postJSON(t, ts, "/v1/solve", SolveRequest{Campaign: camp, K: 4}, &solved); code != http.StatusOK {
		t.Fatalf("solve status %d: %s", code, raw)
	}
	var est EstimateResponse
	code, raw := postJSON(t, ts, "/v1/estimate", EstimateRequest{Campaign: camp, Plan: solved.Plan}, &est)
	if code != http.StatusOK {
		t.Fatalf("estimate status %d: %s", code, raw)
	}
	if !est.CacheHit {
		t.Fatal("estimate over the solved campaign missed the instance cache")
	}
	// Index-based EstimateAU (solver) and the view scan (estimator) are
	// pinned bit-identical by the rrset conformance suite.
	if math.Abs(est.Utility-solved.Utility) > 1e-9 {
		t.Fatalf("estimate %v != solve utility %v", est.Utility, solved.Utility)
	}
}

func TestSimulateEndpoint(t *testing.T) {
	s := testServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	camp := testCampaign(0, 1)
	var solved SolveResponse
	if code, raw := postJSON(t, ts, "/v1/solve", SolveRequest{Campaign: camp, K: 3}, &solved); code != http.StatusOK {
		t.Fatalf("solve status %d: %s", code, raw)
	}
	hits, misses := s.reg.layouts.Stats()
	var sim SimulateResponse
	code, raw := postJSON(t, ts, "/v1/simulate", SimulateRequest{Campaign: camp, Plan: solved.Plan, Runs: 2000}, &sim)
	if code != http.StatusOK {
		t.Fatalf("simulate status %d: %s", code, raw)
	}
	if sim.Utility <= 0 || sim.Runs != 2000 {
		t.Fatalf("unexpected simulate response: %+v", sim)
	}
	// The MRR estimate and the forward Monte-Carlo ground truth agree
	// loosely at these sample sizes (both estimate the same σ(S̄)).
	if diff := math.Abs(sim.Utility - solved.Utility); diff > 0.5*solved.Utility+1 {
		t.Fatalf("simulated utility %v far from MRR estimate %v", sim.Utility, solved.Utility)
	}
	// Simulate reads the graph's out-edges, never the layout cache.
	if h, m := s.reg.layouts.Stats(); h != hits || m != misses {
		t.Fatalf("simulate moved the layout cache: hits %d → %d, misses %d → %d", hits, h, misses, m)
	}
}

// TestAllSolverMethods exercises every method the endpoint accepts over
// one cached instance.
func TestAllSolverMethods(t *testing.T) {
	s := testServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	camp := testCampaign(0, 1)
	for _, method := range []string{"greedy", "bab", "babp", "im", "tim"} {
		var out SolveResponse
		code, raw := postJSON(t, ts, "/v1/solve", SolveRequest{Campaign: camp, Method: method, K: 3, Theta: 300}, &out)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", method, code, raw)
		}
		if out.Utility <= 0 {
			t.Fatalf("%s: utility %v", method, out.Utility)
		}
	}
	if snap := s.Metrics(); snap.Registry.Prepares != 1 {
		t.Fatalf("five methods over one campaign ran %d prepares, want 1", snap.Registry.Prepares)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := testServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code, raw := postJSON(t, ts, "/v1/solve", SolveRequest{Campaign: testCampaign(0), K: 2, Method: "greedy"}, nil); code != http.StatusOK {
		t.Fatalf("solve status %d: %s", code, raw)
	}
	var snap MetricsSnapshot
	if code := getJSON(t, ts, "/metrics", &snap); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if snap.Requests.Solve != 1 || snap.Solves.Total != 1 || snap.Registry.Prepares != 1 {
		t.Fatalf("unexpected metrics: %+v", snap)
	}
	if snap.Registry.LayoutMisses == 0 {
		t.Fatal("layout misses not counted")
	}
}

// TestConcurrentSolveSingleflight is the PR's acceptance criterion: two
// (and more) concurrent /v1/solve requests against the same campaign
// trigger exactly one core.Prepare, observable in the metrics.
func TestConcurrentSolveSingleflight(t *testing.T) {
	s := testServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const concurrent = 8
	req := SolveRequest{Campaign: testCampaign(1, 2), K: 3, Theta: 600}
	var (
		wg      sync.WaitGroup
		start   = make(chan struct{})
		results [concurrent]SolveResponse
		codes   [concurrent]int
	)
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			codes[i], _ = postJSON(t, ts, "/v1/solve", req, &results[i])
		}(i)
	}
	close(start)
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
		if results[i].Utility != results[0].Utility {
			t.Fatalf("request %d: utility %v != %v", i, results[i].Utility, results[0].Utility)
		}
	}
	snap := s.Metrics()
	if snap.Registry.Prepares != 1 {
		t.Fatalf("%d concurrent identical solves ran %d Prepares, want exactly 1", concurrent, snap.Registry.Prepares)
	}
	// Every non-leader request classifies as an exact-θ hit in the
	// registry. The waits counter independently records how many queued
	// behind the in-flight preparation (timing-dependent, at most all of
	// them).
	if got := snap.Registry.InstanceHits; got != concurrent-1 {
		t.Fatalf("instance hits = %d, want %d", got, concurrent-1)
	}
	if w := snap.Registry.SingleflightWaits; w < 0 || w > concurrent-1 {
		t.Fatalf("singleflight waits = %d, want within [0, %d]", w, concurrent-1)
	}
	if snap.Registry.InstanceMisses != 1 {
		t.Fatalf("instance misses = %d, want 1", snap.Registry.InstanceMisses)
	}
}

// steepSolve builds a solve request under a steep adoption model
// (alpha=6, beta=2): the server's default alpha=2 bound is tight enough
// to certify the test graph at the root, and a search that never expands
// a node exercises little of the solver.
func steepSolve() SolveRequest {
	return SolveRequest{
		Campaign: testCampaign(1, 2),
		Method:   "bab",
		K:        3,
		Theta:    600,
		Alpha:    6,
		Beta:     2,
	}
}

// TestIdenticalSolvesSearchIndependently holds identical solves in flight
// together with a delay faultpoint: each runs its own search over the one
// shared artifact, so solves.total grows by exactly the number of
// requests, and every answer agrees with the others bit for bit.
func TestIdenticalSolvesSearchIndependently(t *testing.T) {
	defer faultpoint.Reset()
	s := testServer(t, func(c *Config) { c.AdmitCapacity = 32 })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The delay fires inside Server.solve before the registry, so every
	// request is admitted and in flight at once.
	if err := faultpoint.Arm("serve.solve.pre", "delay:400ms"); err != nil {
		t.Fatal(err)
	}
	const concurrent = 6
	var (
		wg      sync.WaitGroup
		start   = make(chan struct{})
		results [concurrent]SolveResponse
		codes   [concurrent]int
	)
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			codes[i], _ = postJSON(t, ts, "/v1/solve", steepSolve(), &results[i])
		}(i)
	}
	close(start)
	wg.Wait()
	faultpoint.Reset()

	for i := range results {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		got, want := results[i], results[0]
		if math.Float64bits(got.Utility) != math.Float64bits(want.Utility) ||
			math.Float64bits(got.Upper) != math.Float64bits(want.Upper) ||
			fmt.Sprint(got.Plan) != fmt.Sprint(want.Plan) || got.Stats != want.Stats {
			t.Fatalf("request %d: (%v, %v, %v, %+v) != request 0's (%v, %v, %v, %+v)", i,
				got.Utility, got.Upper, got.Plan, got.Stats, want.Utility, want.Upper, want.Plan, want.Stats)
		}
		if got.Stats.Nodes == 0 {
			t.Fatalf("request %d expanded no node", i)
		}
	}
	if snap := s.Metrics(); snap.Solves.Total != concurrent {
		t.Fatalf("solves.total = %d, want %d", snap.Solves.Total, concurrent)
	}
}

// TestSolveAscendingThetaOverHTTP walks the θ-monotone surface end to
// end: ascending-θ solves over one campaign run one prepare plus one
// extend per growth step, a subsequent smaller-θ solve is a prefix hit,
// and every response matches a fresh same-θ server bit for bit.
func TestSolveAscendingThetaOverHTTP(t *testing.T) {
	s := testServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	camp := testCampaign(0, 1)
	solve := func(theta int) SolveResponse {
		t.Helper()
		var out SolveResponse
		code, raw := postJSON(t, ts, "/v1/solve", SolveRequest{Campaign: camp, K: 3, Theta: theta}, &out)
		if code != http.StatusOK {
			t.Fatalf("theta %d: status %d: %s", theta, code, raw)
		}
		return out
	}

	first := solve(300)
	if first.CacheHit || first.Extended || first.PrefixHit || first.PreparedTheta != 300 {
		t.Fatalf("first solve flags: %+v", first)
	}
	second := solve(600)
	if !second.Extended || second.CacheHit || second.PreparedTheta != 600 {
		t.Fatalf("ascending solve flags: %+v", second)
	}
	if second.SampleMS <= 0 {
		t.Fatalf("extended solve reported no sampling time: %v", second.SampleMS)
	}
	third := solve(1200)
	if !third.Extended || third.PreparedTheta != 1200 {
		t.Fatalf("second ascending solve flags: %+v", third)
	}
	prefix := solve(300)
	if !prefix.PrefixHit || !prefix.CacheHit || prefix.SampleMS != 0 || prefix.PreparedTheta != 1200 {
		t.Fatalf("prefix solve flags: %+v", prefix)
	}
	// The prefix result is bit-identical to the initial 300-sample solve.
	if prefix.Utility != first.Utility || prefix.Upper != first.Upper {
		t.Fatalf("prefix solve (%v, %v) != initial solve (%v, %v)",
			prefix.Utility, prefix.Upper, first.Utility, first.Upper)
	}

	snap := s.Metrics()
	if snap.Registry.Prepares != 1 {
		t.Fatalf("prepares = %d, want 1", snap.Registry.Prepares)
	}
	if snap.Registry.Extends != 2 {
		t.Fatalf("extends = %d, want 2", snap.Registry.Extends)
	}
	if snap.Registry.PrefixHits != 1 {
		t.Fatalf("prefix hits = %d, want 1", snap.Registry.PrefixHits)
	}
	if snap.Registry.Instances != 1 {
		t.Fatalf("instances = %d, want 1 (one θ-monotone entry)", snap.Registry.Instances)
	}

	// The grown-θ result matches a fresh server prepared at that θ.
	s2 := testServer(t, nil)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	var fresh SolveResponse
	if code, raw := postJSON(t, ts2, "/v1/solve", SolveRequest{Campaign: camp, K: 3, Theta: 1200}, &fresh); code != http.StatusOK {
		t.Fatalf("fresh solve status %d: %s", code, raw)
	}
	if fresh.Utility != third.Utility || fresh.Upper != third.Upper {
		t.Fatalf("grown solve (%v, %v) != fresh solve (%v, %v)",
			third.Utility, third.Upper, fresh.Utility, fresh.Upper)
	}

	// Estimates ride the same entry: a θ between snapshots is a prefix.
	var est EstimateResponse
	if code, raw := postJSON(t, ts, "/v1/estimate", EstimateRequest{Campaign: camp, Plan: third.Plan, Theta: 700}, &est); code != http.StatusOK {
		t.Fatalf("estimate status %d: %s", code, raw)
	}
	if !est.PrefixHit || est.PreparedTheta != 1200 || est.Theta != 700 {
		t.Fatalf("estimate flags: %+v", est)
	}
}

// TestConcurrentSolvesDistinctCampaigns hammers one registry with
// goroutines solving different campaigns over shared layouts; run under
// -race this is the serve subsystem's data-race canary.
func TestConcurrentSolvesDistinctCampaigns(t *testing.T) {
	s := testServer(t, func(c *Config) {
		c.InstanceCapacity = 16
		// Admission headroom for the full 18-goroutine burst on small
		// GOMAXPROCS boxes: this test exercises registry sharing, not
		// overload shedding (robust_test.go covers that).
		c.AdmitQueue = 64
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	campaigns := []topic.Campaign{
		testCampaign(0), testCampaign(1), testCampaign(2),
		testCampaign(0, 1), testCampaign(1, 2), testCampaign(0, 2),
	}
	const perCampaign = 3
	var wg sync.WaitGroup
	errs := make(chan string, len(campaigns)*perCampaign)
	for _, camp := range campaigns {
		for r := 0; r < perCampaign; r++ {
			wg.Add(1)
			go func(c topic.Campaign) {
				defer wg.Done()
				var out SolveResponse
				code, raw := postJSON(t, ts, "/v1/solve", SolveRequest{Campaign: c, K: 2, Theta: 300}, &out)
				if code != http.StatusOK {
					errs <- fmt.Sprintf("campaign %v: status %d: %s", c.Pieces, code, raw)
					return
				}
				if out.Utility <= 0 {
					errs <- fmt.Sprintf("campaign %v: utility %v", c.Pieces, out.Utility)
				}
			}(camp)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	snap := s.Metrics()
	if snap.Registry.Prepares != int64(len(campaigns)) {
		t.Fatalf("prepares = %d, want %d (one per distinct campaign)", snap.Registry.Prepares, len(campaigns))
	}
	// 6 campaigns over only 3 distinct pieces: layouts must be shared.
	if snap.Registry.Layouts != 3 {
		t.Fatalf("layout cache holds %d layouts, want 3", snap.Registry.Layouts)
	}
}
