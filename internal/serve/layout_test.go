package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"oipa/internal/cascade"
	"oipa/internal/graph"
	"oipa/internal/logistic"
	"oipa/internal/topic"
)

// TestSimulateOnCachedLayoutsMatchesExplicitLayouts drives /v1/simulate
// after a solve over the same pieces: the simulation reads the graph, not
// the layout cache, so layout_bytes and the cache's hit and miss counts
// stay as the solve left them; its utility equals the in-process
// cascade.EstimateAdoption bit for bit, and so does the layout forwarder
// over the solve's cached layouts and over explicit-probability layouts.
func TestSimulateOnCachedLayoutsMatchesExplicitLayouts(t *testing.T) {
	s := testServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	camp := testCampaign(0, 1)
	var solved SolveResponse
	if code, raw := postJSON(t, ts, "/v1/solve", SolveRequest{Campaign: camp, K: 3}, &solved); code != http.StatusOK {
		t.Fatalf("solve status %d: %s", code, raw)
	}
	var before, after MetricsSnapshot
	if code := getJSON(t, ts, "/metrics", &before); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	const runs, seed = 3000, 9
	var sim SimulateResponse
	if code, raw := postJSON(t, ts, "/v1/simulate", SimulateRequest{Campaign: camp, Plan: solved.Plan, Runs: runs, Seed: seed}, &sim); code != http.StatusOK {
		t.Fatalf("simulate status %d: %s", code, raw)
	}
	if code := getJSON(t, ts, "/metrics", &after); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	b, a := before.Registry, after.Registry
	if a.LayoutBytes != b.LayoutBytes || a.LayoutHits != b.LayoutHits || a.LayoutMisses != b.LayoutMisses {
		t.Fatalf("simulate moved the layout cache: bytes %d → %d, hits %d → %d, misses %d → %d", b.LayoutBytes, a.LayoutBytes, b.LayoutHits, a.LayoutHits, b.LayoutMisses, a.LayoutMisses)
	}

	g, model := s.g, logistic.Model{Alpha: 2, Beta: 1}
	probs := make([][]float64, camp.L())
	cached := make([]*graph.PieceLayout, camp.L())
	explicit := make([]*graph.PieceLayout, camp.L())
	for j, piece := range camp.Pieces {
		probs[j] = g.PieceProbs(piece.Dist)
		var err error
		if cached[j], err = s.reg.layouts.Get(piece.Dist); err != nil {
			t.Fatal(err)
		}
		if explicit[j], err = g.Layout(probs[j]); err != nil {
			t.Fatal(err)
		}
	}
	want, err := cascade.EstimateAdoption(context.Background(), g, probs, solved.Plan, model, runs, seed)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Utility != want {
		t.Fatalf("simulate = %v, in-process EstimateAdoption = %v", sim.Utility, want)
	}
	for name, layouts := range map[string][]*graph.PieceLayout{"cached": cached, "explicit": explicit} {
		got, err := cascade.EstimateAdoptionLayouts(g, layouts, solved.Plan, model, runs, seed)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("EstimateAdoptionLayouts over %s layouts = %v, EstimateAdoption = %v", name, got, want)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "# TYPE oipa_layout_cache_bytes gauge") {
		t.Fatal("prometheus exposition lacks oipa_layout_cache_bytes")
	}
}

// TestLayoutsLiveWithTheirInstances pins what bounds layout memory: the
// layout cache holds no layout alive itself, so once an instance is
// evicted and collections have run, layouts and layout_bytes at /metrics
// count the resident campaign's layouts alone.
func TestLayoutsLiveWithTheirInstances(t *testing.T) {
	s := testServer(t, func(c *Config) { c.InstanceCapacity = 1 })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	evicted, resident := testCampaign(0, 1), testCampaign(2)
	for _, camp := range []topic.Campaign{evicted, resident} {
		if code, raw := postJSON(t, ts, "/v1/solve", SolveRequest{Campaign: camp, K: 2}, nil); code != http.StatusOK {
			t.Fatalf("solve status %d: %s", code, raw)
		}
	}
	lay, err := s.reg.layouts.Get(resident.Pieces[0].Dist)
	if err != nil {
		t.Fatal(err)
	}
	want := lay.MemUsage()
	var snap MetricsSnapshot
	for deadline := time.Now().Add(10 * time.Second); ; {
		// The first collection only moves sync.Pool contents (evaluators
		// bound to the evicted instance) to the pools' victim caches.
		runtime.GC()
		runtime.GC()
		if code := getJSON(t, ts, "/metrics", &snap); code != http.StatusOK {
			t.Fatalf("metrics status %d", code)
		}
		if snap.Registry.Layouts == 1 && snap.Registry.LayoutBytes == want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("layouts %d, layout_bytes %d with only a one-piece campaign resident; want 1, %d", snap.Registry.Layouts, snap.Registry.LayoutBytes, want)
		}
		time.Sleep(time.Millisecond)
	}
	if snap.Registry.Instances != 1 || snap.Registry.InstanceEvictions != 1 {
		t.Fatalf("instances %d, evictions %d; want 1 and 1", snap.Registry.Instances, snap.Registry.InstanceEvictions)
	}
	if hits, misses := snap.Registry.LayoutHits, snap.Registry.LayoutMisses; hits != 1 || misses != 3 {
		t.Fatalf("layout hits %d, misses %d; want 1 (this test's Get) and 3", hits, misses)
	}
	runtime.KeepAlive(lay)
}
