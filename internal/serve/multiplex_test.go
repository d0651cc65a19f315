package serve

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"oipa/internal/core"
	"oipa/internal/graph"
	"oipa/internal/logistic"
	"oipa/internal/topic"
	"oipa/internal/xrand"
)

// testLayerGraph builds the second multiplex layer the serve tests use:
// 40 nodes over the same 3-topic space, identity-embedded into the
// 60-node base universe.
func testLayerGraph(t testing.TB) *graph.Graph {
	t.Helper()
	const n, m, z = 40, 200, 3
	r := xrand.New(1234)
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
		if err := b.AddEdge(u, v, topic.FromDense(dense)); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testMultiplexServer(t testing.TB) (*Server, *graph.Graph) {
	t.Helper()
	layer := testLayerGraph(t)
	s := testServer(t, func(cfg *Config) {
		cfg.Layers = []graph.MultiplexLayer{{G: layer}}
	})
	return s, layer
}

// TestSolveMultiplexLayers drives the layer-aware /v1/solve end to end
// and pins it against a direct core preparation over the same
// multiplex: identical samples, identical solver options, so the
// utilities and plans must match exactly.
func TestSolveMultiplexLayers(t *testing.T) {
	s, layer := testMultiplexServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := map[string]interface{}{
		"campaign": testCampaign(0, 1),
		"method":   "bab",
		"k":        4,
		"theta":    600,
		"seed":     3,
		"layers":   []int{1, 0, 1}, // unsorted, duplicated: canonicalization's job
	}
	var resp SolveResponse
	if code, body := postJSON(t, ts, "/v1/solve", req, &resp); code != 200 {
		t.Fatalf("multiplex solve: %d %s", code, body)
	}
	if len(resp.Layers) != 2 || resp.Layers[0] != 0 || resp.Layers[1] != 1 {
		t.Fatalf("layers echo %v, want [0 1]", resp.Layers)
	}
	if resp.Utility <= 0 {
		t.Fatalf("utility %v", resp.Utility)
	}

	// Server-vs-local exact parity: the registry's multiplex prepare is
	// deterministic in (campaign, seed), and the solve mirrors the
	// server's exact BAB options, so float64 equality holds.
	g, pool := testGraph(t)
	mx, err := graph.NewMultiplex(g.N(), []graph.MultiplexLayer{{G: g}, {G: layer}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	prob := &core.Problem{
		Mux:      mx,
		Campaign: testCampaign(0, 1),
		Pool:     pool,
		K:        4,
		Model:    logistic.Model{Alpha: 2, Beta: 1},
	}
	inst, err := core.Prepare(context.Background(), prob, 600, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.SolveBAB(inst, core.BABOptions{
		Epsilon:        0.5,
		Tolerance:      0.01,
		RawGap:         true,
		FillAfterFloor: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Utility != want.Utility {
		t.Fatalf("server utility %v, local multiplex solve %v", resp.Utility, want.Utility)
	}
	if len(resp.Plan) != len(want.Plan.Seeds) {
		t.Fatalf("plan shapes differ: %v vs %v", resp.Plan, want.Plan.Seeds)
	}
	for j := range resp.Plan {
		if len(resp.Plan[j]) != len(want.Plan.Seeds[j]) {
			t.Fatalf("plans differ: %v vs %v", resp.Plan, want.Plan.Seeds)
		}
		for x := range resp.Plan[j] {
			if resp.Plan[j][x] != want.Plan.Seeds[j][x] {
				t.Fatalf("plans differ: %v vs %v", resp.Plan, want.Plan.Seeds)
			}
		}
	}

	// Estimating the solved plan over the same layer set reuses the
	// cached entry and agrees with the instance's exact scan.
	var est EstimateResponse
	ereq := map[string]interface{}{
		"campaign": testCampaign(0, 1),
		"plan":     resp.Plan,
		"theta":    600,
		"seed":     3,
		"layers":   []int{0, 1},
	}
	if code, body := postJSON(t, ts, "/v1/estimate", ereq, &est); code != 200 {
		t.Fatalf("multiplex estimate: %d %s", code, body)
	}
	if !est.CacheHit {
		t.Fatal("estimate over the solved layer set missed the cache")
	}
	wantUtil, err := inst.Index.EstimateAU(want.Plan.Seeds, prob.Model)
	if err != nil {
		t.Fatal(err)
	}
	if est.Utility != wantUtil {
		t.Fatalf("estimate %v, exact scan %v", est.Utility, wantUtil)
	}
}

// TestMultiplexSingleGraphSharing pins the [0]-collapses-to-base rule:
// a layerless request, a [0] request, and an explicit [0,0] request all
// share ONE registry entry and return bit-identical answers — the
// single-graph path is untouched by the multiplex configuration.
func TestMultiplexSingleGraphSharing(t *testing.T) {
	s, _ := testMultiplexServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	solve := func(layers []int) SolveResponse {
		req := map[string]interface{}{
			"campaign": testCampaign(0, 1),
			"k":        3,
			"theta":    500,
		}
		if layers != nil {
			req["layers"] = layers
		}
		var resp SolveResponse
		if code, body := postJSON(t, ts, "/v1/solve", req, &resp); code != 200 {
			t.Fatalf("solve layers=%v: %d %s", layers, code, body)
		}
		return resp
	}
	base := solve(nil)
	if base.Layers != nil {
		t.Fatalf("layerless solve echoed layers %v", base.Layers)
	}
	for _, layers := range [][]int{{0}, {0, 0}} {
		r := solve(layers)
		if r.Layers != nil {
			t.Fatalf("layers=%v echoed %v, want none (base collapse)", layers, r.Layers)
		}
		if !r.CacheHit {
			t.Fatalf("layers=%v did not share the layerless entry", layers)
		}
		if r.Utility != base.Utility {
			t.Fatalf("layers=%v utility %v, layerless %v", layers, r.Utility, base.Utility)
		}
	}
	if got := s.Registry().Len(); got != 1 {
		t.Fatalf("registry entries = %d, want 1 shared", got)
	}

	// A genuinely multi-layer request keys its own entry — and builds its
	// layouts in the multiplex's per-layer caches, which the layout
	// metrics must count alongside the base graph's cache.
	before := s.Metrics().Registry
	solveLayers := map[string]interface{}{
		"campaign": testCampaign(0, 1),
		"k":        3,
		"theta":    500,
		"layers":   []int{0, 1},
	}
	var resp SolveResponse
	if code, body := postJSON(t, ts, "/v1/solve", solveLayers, &resp); code != 200 {
		t.Fatalf("multiplex solve: %d %s", code, body)
	}
	if resp.CacheHit {
		t.Fatal("multiplex solve hit the single-graph entry")
	}
	if got := s.Registry().Len(); got != 2 {
		t.Fatalf("registry entries = %d, want 2 (base + layer set)", got)
	}

	after := s.Metrics().Registry
	if after.LayoutBytes <= before.LayoutBytes || after.Layouts != before.Layouts+4 || after.LayoutMisses != before.LayoutMisses+4 {
		t.Fatalf("layout metrics after a 2-piece solve over 2 layers: layouts %d→%d, misses %d→%d, bytes %d→%d; want +4, +4, more",
			before.Layouts, after.Layouts, before.LayoutMisses, after.LayoutMisses, before.LayoutBytes, after.LayoutBytes)
	}
}

// TestMultiplexLayerValidation covers the refusal surface: out-of-range
// indices, layers on a single-graph server, and the simulate endpoint
// (which has no layers field at all).
func TestMultiplexLayerValidation(t *testing.T) {
	s, _ := testMultiplexServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bad := map[string]interface{}{
		"campaign": testCampaign(0),
		"k":        2,
		"theta":    300,
		"layers":   []int{0, 2},
	}
	var out map[string]interface{}
	if code, body := postJSON(t, ts, "/v1/solve", bad, &out); code != 400 {
		t.Fatalf("layer 2 on a 2-layer server: %d %s", code, body)
	}
	bad["layers"] = []int{-1}
	if code, body := postJSON(t, ts, "/v1/solve", bad, &out); code != 400 {
		t.Fatalf("negative layer: %d %s", code, body)
	}

	sim := map[string]interface{}{
		"campaign": testCampaign(0),
		"plan":     [][]int32{{1}},
		"layers":   []int{0, 1},
	}
	code, body := postJSON(t, ts, "/v1/simulate", sim, &out)
	if code != 400 {
		t.Fatalf("simulate with layers: %d %s", code, body)
	}
	if !strings.Contains(body, "layers") {
		t.Fatalf("simulate rejection does not name the field: %q", body)
	}

	// A single-graph server refuses any non-base layer.
	single := testServer(t, nil)
	tss := httptest.NewServer(single.Handler())
	defer tss.Close()
	bad["layers"] = []int{1}
	if code, body := postJSON(t, tss, "/v1/solve", bad, &out); code != 400 {
		t.Fatalf("layer 1 on a single-graph server: %d %s", code, body)
	}
	// But [0] stays valid — the base graph is always layer 0.
	ok := map[string]interface{}{
		"campaign": testCampaign(0),
		"k":        2,
		"theta":    300,
		"layers":   []int{0},
	}
	var resp SolveResponse
	if code, body := postJSON(t, tss, "/v1/solve", ok, &resp); code != 200 {
		t.Fatalf("layers=[0] on a single-graph server: %d %s", code, body)
	}

	// Instance rejects out-of-range sets directly too (the async
	// submission path validates before enqueueing; this pins the registry
	// check those submissions rely on).
	if _, _, err := single.Registry().Instance(context.Background(), testCampaign(0), 300, 1, 1); err == nil {
		t.Fatal("registry accepted a layer beyond the configuration")
	}
}
