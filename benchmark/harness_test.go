package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"oipa/internal/gen"
	"oipa/internal/graph"
	"oipa/internal/serve"
)

// toy is a graph small enough that every workload, ladder to 400k
// included, replays in well under a second.
func toy(t *testing.T) (*graph.Graph, []int32, inputs) {
	t.Helper()
	d, err := gen.Build(gen.Preset("lastfm"), 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := gen.PromoterPool(d.G, serverPoolFrac, serverPoolSeed)
	if err != nil {
		t.Fatal(err)
	}
	return d.G, pool, inputs{Seed: 1, Z: d.G.Z(), Pool: pool}
}

// requestList materializes the first n requests of every client, split
// as drive splits a count limit.
func (w *workload) requestList(in inputs, n int) [][]request {
	lists := make([][]request, w.Clients)
	for c := range lists {
		per := n / w.Clients
		if c < n%w.Clients {
			per++
		}
		for i := 0; i < per; i++ {
			lists[c] = append(lists[c], w.Next(in, c, i))
		}
	}
	return lists
}

func TestRequestListsRepeatPerSeed(t *testing.T) {
	_, _, in := toy(t)
	render := func(w *workload, in inputs) []byte {
		b, err := json.Marshal(w.requestList(in, 48))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for i := range workloads {
		w := &workloads[i]
		a, b := render(w, in), render(w, in)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed generated two different request lists", w.Name)
		}
		other := in
		other.Seed = 2
		if bytes.Equal(a, render(w, other)) {
			t.Errorf("%s: seeds 1 and 2 generated the same request list", w.Name)
		}
		if wa, wb := w.Warmup(in), w.Warmup(in); !reflect.DeepEqual(wa, wb) {
			t.Errorf("%s: warm-up differs between two calls with one seed", w.Name)
		}
	}
}

func TestRequestListSplitsCountOverClients(t *testing.T) {
	_, _, in := toy(t)
	w, err := workloadByName("cold_prepare")
	if err != nil {
		t.Fatal(err)
	}
	lists := w.requestList(in, 5)
	if len(lists) != 2 || len(lists[0]) != 3 || len(lists[1]) != 2 {
		t.Fatalf("5 requests over 2 clients split as %d/%d, want 3/2", len(lists[0]), len(lists[1]))
	}
}

func TestPercentileMedianSpread(t *testing.T) {
	vals := []float64{40, 10, 30, 20}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 25}, {100, 40}, {25, 17.5}} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !reflect.DeepEqual(vals, []float64{40, 10, 30, 20}) {
		t.Error("percentile reordered its input")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := spread([]float64{90, 100, 120}); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("spread = %v, want 0.3", got)
	}
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i)
	}
	if got := samplesBeyond(hundred, 95); got != 5 {
		t.Errorf("samplesBeyond(p95 of 100) = %d, want 5", got)
	}
	// Timings aggregate to the median of the repetitions, peak RSS to the
	// maximum: one repetition that blew memory up is the one that matters.
	if a := aggregateMetric(metricDef{Unit: "ms"}, []float64{5, 9, 6}); a.Reading != 6 || math.Abs(a.Spread-4.0/6) > 1e-12 {
		t.Errorf("timing aggregate = %+v, want reading 6 spread 0.667", a)
	}
	if a := aggregateMetric(metricDef{Unit: "MB", Peak: true}, []float64{5, 9, 6}); a.Reading != 9 {
		t.Errorf("rss aggregate reading = %v, want the maximum 9", a.Reading)
	}
}

func TestProcParsing(t *testing.T) {
	// A command name with spaces and parentheses must not shift the fields.
	stat := "4242 (oipa (serve) x) S 1 4242 4242 0 -1 4194560 1000 0 0 0 250 50 0 0 20 0 5 0 100 0 0"
	cpu, err := parseStatCPU(stat)
	if err != nil || cpu != 3.0 {
		t.Errorf("parseStatCPU = %v, %v; want 3.0 s (250+50 ticks)", cpu, err)
	}
	if _, err := parseStatCPU("garbage"); err == nil {
		t.Error("parseStatCPU accepted a line without a command name")
	}
	mb, err := parseVmHWM("Name:\toipa-serve\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n")
	if err != nil || mb != 200 {
		t.Errorf("parseVmHWM = %v, %v; want 200 MB", mb, err)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Error("parseVmHWM accepted a status without VmHWM")
	}
}

// handTree is one request: 1000 µs at the client, 800 in the handler.
func handTree() []span {
	return []span{
		{ID: 1, Parent: 0, Name: "client.request", StartUS: 0, DurUS: 1000},
		{ID: 2, Parent: 1, Name: "solve", StartUS: 100, DurUS: 800},
		{ID: 3, Parent: 2, Name: "admit", StartUS: 110, DurUS: 10},
		{ID: 4, Parent: 2, Name: "registry", StartUS: 130, DurUS: 200},
		{ID: 5, Parent: 4, Name: "prepare", StartUS: 150, DurUS: 150},
		{ID: 6, Parent: 2, Name: "solve.babp", StartUS: 340, DurUS: 540},
	}
}

func TestSelfTimesAddUpToTheClientWall(t *testing.T) {
	spans := handTree()
	self := selfTimes(spans)
	want := map[int]int64{1: 200, 2: 50, 3: 10, 4: 50, 5: 150, 6: 540}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	sum := summarizeSpans(spans)
	if sum.Requests != 1 || sum.Coverage != 1 {
		t.Errorf("requests %d coverage %v, want 1 and exactly 1", sum.Requests, sum.Coverage)
	}
	wantGroups := map[string]float64{groupHTTP: 200, groupHandler: 50, groupAdmit: 10, groupRegistry: 200, groupSolve: 540}
	if !reflect.DeepEqual(sum.SelfUS, wantGroups) {
		t.Errorf("group self times %v, want %v (prepare counts as registry)", sum.SelfUS, wantGroups)
	}
}

func TestSelfTimesCountOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "solve.parallel", StartUS: 0, DurUS: 100},
		{ID: 2, Parent: 1, Name: "worker.1", StartUS: 10, DurUS: 50},
		{ID: 3, Parent: 1, Name: "worker.2", StartUS: 30, DurUS: 50},
	}
	if got := selfTimes(spans)[1]; got != 30 {
		t.Errorf("parent self = %d, want 30: the workers cover 10..80 once", got)
	}
}

func TestSpanCoverageRisesWhenAChildLeavesItsParent(t *testing.T) {
	spans := handTree()
	spans[5].DurUS = 700 // solve.babp now ends 140 µs after the handler span
	if cov := summarizeSpans(spans).Coverage; cov <= 1.05 {
		t.Errorf("coverage %v with a child reaching outside its parent, want it above 1.05", cov)
	}
}

func TestCompareVerdictsOnFixtures(t *testing.T) {
	a, err := readResults("testdata/compare_a.json")
	if err != nil {
		t.Fatal(err)
	}
	b, err := readResults("testdata/compare_b.json")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if !compare(&out, a, b) {
		t.Errorf("compare reported no regression although req_p50_ms worsened by 30%%:\n%s", out.String())
	}
	wantRow := map[string]string{
		"req_p50_ms":     verdictWorse,      // +30 %, tight spreads
		"throughput_rps": verdictBetter,     // +40 %, higher is better
		"cpu_ms_per_req": verdictSame,       // +1.5 %
		"rss_peak_mb":    verdictUnresolved, // b's repetitions spread 30 %
		"setup_s":        verdictSame,       // +5 % inside its 25 % bound
	}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || f[0] != "cold_prepare" {
			continue
		}
		if want, ok := wantRow[f[1]]; ok {
			if got := f[len(f)-1]; got != want {
				t.Errorf("%s: verdict %s, want %s\n%s", f[1], got, want, line)
			}
			delete(wantRow, f[1])
		}
	}
	if len(wantRow) > 0 {
		t.Errorf("rows missing from the comparison: %v\n%s", wantRow, out.String())
	}
	if !strings.Contains(out.String(), "core.tau_evals") || strings.Contains(out.String(), "serve.prepares") {
		t.Errorf("exact counts: want core.tau_evals listed as differing and the equal serve.prepares left out:\n%s", out.String())
	}

	// Identical files: nothing regressed. A higher fail_share alone does.
	out.Reset()
	if compare(&out, a, a) {
		t.Errorf("a file compared with itself regressed:\n%s", out.String())
	}
	a2, _ := readResults("testdata/compare_a.json")
	a2.Workloads["cold_prepare"].FailShare = 0.01
	if !compare(&out, a, a2) {
		t.Error("a higher fail_share was not reported as a regression")
	}
}

func TestVerdictResolvesWideSpreadOnlyByCleanSeparation(t *testing.T) {
	d := metricDef{Name: "req_p50_ms", Better: "lower", Bound: 0.10}
	wide := aggregateMetric(d, []float64{90, 100, 115})
	clearlyWorse := aggregateMetric(d, []float64{130, 140, 150})
	clearlyBetter := aggregateMetric(d, []float64{60, 70, 80})
	if got := verdict(d, wide, clearlyWorse); got != verdictWorse {
		t.Errorf("every run worse than every baseline run: %s, want worse", got)
	}
	if got := verdict(d, wide, clearlyBetter); got != verdictBetter {
		t.Errorf("every run better than every baseline run: %s, want better", got)
	}
	if got := verdict(d, wide, aggregateMetric(d, []float64{95, 112, 120})); got != verdictUnresolved {
		t.Errorf("overlapping wide runs: %s, want unresolved", got)
	}
}

func TestSetupBoundIsNeverTighterThanHalfASecond(t *testing.T) {
	var d metricDef
	for _, e := range endToEnd {
		if e.Name == "setup_s" {
			d = e
		}
	}
	base := aggregateMetric(d, []float64{0.99, 1.0, 1.01})
	if got := verdict(d, base, aggregateMetric(d, []float64{1.39, 1.4, 1.41})); got != verdictSame {
		t.Errorf("set-up 1.0 s to 1.4 s is +40%% but under half a second: %s, want same", got)
	}
	if got := verdict(d, base, aggregateMetric(d, []float64{1.59, 1.6, 1.61})); got != verdictWorse {
		t.Errorf("set-up 1.0 s to 1.6 s: %s, want worse", got)
	}
	slow := aggregateMetric(d, []float64{9.9, 10, 10.1})
	if got := verdict(d, slow, aggregateMetric(d, []float64{12.9, 13, 13.1})); got != verdictWorse {
		t.Errorf("set-up 10 s to 13 s is +30%%, beyond the 25%% bound: %s, want worse", got)
	}
}

// TestBenchmarkJSONMatchesTheTables pins the contract file at the
// repository root to the metric and workload tables compiled in here.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside benchmark/: %v", err)
	}
	var file struct {
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d compiled in", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the harness %q (or their reasons differ)", i, file.Workloads[i].Name, w.Name)
		}
	}
	if len(file.EndToEnd) != len(endToEnd) || len(file.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the harness %d+%d", len(file.EndToEnd), len(file.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		f := file.EndToEnd[i]
		if f.Name != d.Name || f.Unit != d.Unit || f.Better != d.Better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, harness %+v", i, f, d)
		}
		// The driver's gate has no "unresolved": its bound covers the box's
		// drift, so it is never tighter than -compare's and at most 25 %.
		if f.Bound < d.Bound || f.Bound > 0.25 {
			t.Errorf("%s: BENCHMARK.json bound %v, want it within [%v, 0.25]", d.Name, f.Bound, d.Bound)
		}
	}
	for i, d := range perLayer {
		f := file.PerLayer[i]
		if f.Name != d.Name || f.Unit != d.Unit || f.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, harness %+v", i, f, d)
		}
	}
}

// smoke replays the first n requests of one workload against the real
// handler over loopback HTTP.
func smoke(t *testing.T, name string, n int) (*workload, *oracle, inputs, []sample, serve.MetricsSnapshot) {
	t.Helper()
	g, pool, in := toy(t)
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Graph: g, Pool: pool, Model: serverModel})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if err := warmup(context.Background(), ts.URL, w.Warmup(in)); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	samples, _ := drive(context.Background(), ts.URL, w, in, limit{Count: n}, false)
	return w, newOracle(g, pool), in, samples, srv.Metrics()
}

func TestSmokeAllWorkloadsAtToyScale(t *testing.T) {
	for name, n := range map[string]int{"cold_prepare": 6, "theta_ladder": 12, "warm_solve_bab": 6, "warm_query_mix": 64} {
		w, o, in, samples, snap := smoke(t, name, n)
		res := &runResult{}
		res.judge(o, in.Seed, samples)
		res.ShapeErr = checkShape(&snap, sentRequests(w, in, samples))
		if res.Attempted != n {
			t.Errorf("%s: attempted %d, want %d", name, res.Attempted, n)
		}
		if !res.correct() {
			t.Errorf("%s: %d failed %v, traffic shape %q", name, res.Failed, res.Failures, res.ShapeErr)
		}
	}
}

// TestOracleCountsACorruptedAnswer: each corruption of an otherwise
// good answer must come out as exactly one failed request.
func TestOracleCountsACorruptedAnswer(t *testing.T) {
	_, o, in, good, _ := smoke(t, "cold_prepare", 32)
	outsider := int32(0)
	for o.inPool[outsider] {
		outsider++
	}
	// patch rewrites fields of a JSON answer.
	patch := func(body []byte, edit func(m map[string]interface{})) []byte {
		var m map[string]interface{}
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatal(err)
		}
		edit(m)
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// An answer the exact recomputation visits, and one it skips.
	recomputed := -1
	for i := range good {
		if sampled(in.Seed, &good[i]) {
			recomputed = i
			break
		}
	}
	if recomputed < 0 {
		t.Fatal("no request of the list is sampled for exact recomputation")
	}
	corruptions := map[string]func(s []sample){
		"a seed outside the promoter pool": func(s []sample) {
			s[0].Body = patch(s[0].Body, func(m map[string]interface{}) {
				m["plan"] = []interface{}{[]interface{}{outsider}, []interface{}{}, []interface{}{}}
			})
		},
		"utility above its upper bound": func(s []sample) {
			s[0].Body = patch(s[0].Body, func(m map[string]interface{}) { m["utility"] = m["upper"].(float64) + 1 })
		},
		"a degraded answer": func(s []sample) {
			s[0].Body = patch(s[0].Body, func(m map[string]interface{}) { m["degraded"] = true })
		},
		"the wrong cache outcome": func(s []sample) {
			s[0].Body = patch(s[0].Body, func(m map[string]interface{}) { m["cache_hit"] = true })
		},
		"a theta that was not asked for": func(s []sample) {
			s[0].Body = patch(s[0].Body, func(m map[string]interface{}) { m["theta"] = 1 })
		},
		"a non-200 status": func(s []sample) { s[0].Status = 503 },
		"a utility one ulp off on a recomputed request": func(s []sample) {
			x := &s[recomputed]
			x.Body = patch(x.Body, func(m map[string]interface{}) {
				m["utility"] = math.Nextafter(m["utility"].(float64), math.Inf(-1))
			})
		},
	}
	for name, corrupt := range corruptions {
		samples := append([]sample(nil), good...)
		corrupt(samples)
		res := &runResult{}
		res.judge(o, in.Seed, samples)
		if res.Failed != 1 {
			t.Errorf("%s: %d requests counted as failed, want exactly 1 (%v)", name, res.Failed, res.Failures)
		}
	}
	res := &runResult{}
	if res.judge(o, in.Seed, good); res.Failed != 0 {
		t.Errorf("the untouched answers: %d failed (%v)", res.Failed, res.Failures)
	}
}

func TestWindowRatesCountRequestsFractionally(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ticks := []cpuTick{{At: at(0), CPU: 1.0}, {At: at(1000), CPU: 2.0}, {At: at(2000), CPU: 2.5}}
	samples := []sample{
		{Start: at(0), Latency: 500 * time.Millisecond},                 // all in window 0
		{Start: at(500), Latency: time.Second},                          // half in each window
		{Start: at(1500), Latency: 250 * time.Millisecond},              // all in window 1
		{Start: at(1750), Latency: time.Second},                         // a quarter in window 1
		{Start: at(100), Latency: 100 * time.Millisecond, Failed: true}, // failed: adds nothing
	}
	rps, cpuMS := windowRates(ticks, samples)
	if want := []float64{1.5, 1.75}; !reflect.DeepEqual(rps, want) {
		t.Errorf("requests served per second %v, want %v", rps, want)
	}
	if want := []float64{1000 / 1.5, 500 / 1.75}; !reflect.DeepEqual(cpuMS, want) {
		t.Errorf("cpu ms per request %v, want %v", cpuMS, want)
	}
	// A window in which nothing was served has no rate; it is left out.
	if rps, _ := windowRates(ticks, samples[2:3]); len(rps) != 1 {
		t.Errorf("%d windows from one short request, want 1", len(rps))
	}
}

// TestTracedRequestsAdoptTheServerTree drives real traced requests and
// checks what the traced pass relies on: the server's tree arrives,
// hangs under client.request with one shared request id, and the self
// times cover the client wall.
func TestTracedRequestsAdoptTheServerTree(t *testing.T) {
	g, pool, in := toy(t)
	w, _ := workloadByName("warm_query_mix")
	srv, err := serve.New(serve.Config{Graph: g, Pool: pool, Model: serverModel})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if err := warmup(context.Background(), ts.URL, w.Warmup(in)); err != nil {
		t.Fatal(err)
	}
	samples, _ := drive(context.Background(), ts.URL, w, in, limit{Count: 32}, true)
	tr := newTracer()
	for i := range samples {
		tree := traceOf(&samples[i])
		if tree == nil {
			t.Fatalf("request %d: no span tree in a ?debug=trace answer: %s", i, samples[i].Body)
		}
		tr.adoptRequest(&samples[i], tree)
	}
	byID := map[int]span{}
	for _, s := range tr.spans {
		byID[s.ID] = s
	}
	roots := 0
	for _, s := range tr.spans {
		switch {
		case s.Parent == 0:
			roots++
			if s.Name != "client.request" {
				t.Errorf("root span %q, want client.request", s.Name)
			}
		case byID[s.Parent].RequestID != s.RequestID || s.RequestID == "":
			t.Errorf("span %q has request id %q, its parent %q", s.Name, s.RequestID, byID[s.Parent].RequestID)
		}
	}
	if roots != 32 {
		t.Errorf("%d client.request roots, want 32", roots)
	}
	sum := summarizeSpans(tr.spans)
	if sum.Coverage < 0.95 || sum.Coverage > 1.05 {
		t.Errorf("span coverage %v outside 0.95-1.05", sum.Coverage)
	}
	if sum.SelfUS[groupEstimate] <= 0 || sum.SelfUS[groupSolve] <= 0 || sum.SelfUS[groupRegistry] <= 0 {
		t.Errorf("a 32-request mix left a layer group without self time: %v", sum.SelfUS)
	}
}
