package serve

import (
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

// TestSimulateOnCachedLayoutsMatchesExplicitLayouts drives the lazy
// forward side through the real handlers: a solve caches pruned,
// reverse-only layouts (layout_bytes says so); /v1/simulate over the same
// pieces builds their forward sides on first use and must return exactly
// the number a local run over explicit-probability layouts gives; and
// layout_bytes then accounts one forward side per piece.
func TestSimulateOnCachedLayoutsMatchesExplicitLayouts(t *testing.T) {
	s := testServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	camp := testCampaign(0, 1)
	var solved SolveResponse
	if code, raw := postJSON(t, ts, "/v1/solve", SolveRequest{Campaign: camp, K: 3}, &solved); code != http.StatusOK {
		t.Fatalf("solve status %d: %s", code, raw)
	}
	var reverseOnly int64
	for _, piece := range camp.Pieces {
		lay, err := s.reg.Layouts().Get(piece.Dist)
		if err != nil {
			t.Fatal(err)
		}
		reverseOnly += int64(8*len(lay.InOff) + 4*len(lay.InFrom) + 8*len(lay.InProbs) + 24*len(lay.InDist))
	}
	var snap MetricsSnapshot
	if code := getJSON(t, ts, "/metrics", &snap); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if snap.Registry.LayoutBytes != reverseOnly {
		t.Fatalf("layout_bytes = %d after a solve, want the reverse arrays alone = %d", snap.Registry.LayoutBytes, reverseOnly)
	}

	const runs, seed = 3000, 9
	var sim SimulateResponse
	if code, raw := postJSON(t, ts, "/v1/simulate", SimulateRequest{Campaign: camp, Plan: solved.Plan, Runs: runs, Seed: seed}, &sim); code != http.StatusOK {
		t.Fatalf("simulate status %d: %s", code, raw)
	}
	g, _ := testGraph(t)
	explicit := make([]*graph.PieceLayout, camp.L())
	for j, piece := range camp.Pieces {
		lay, err := g.Layout(g.PieceProbs(piece.Dist))
		if err != nil {
			t.Fatal(err)
		}
		explicit[j] = lay
	}
	want, err := cascade.EstimateAdoptionLayouts(g, explicit, solved.Plan, logistic.Model{Alpha: 2, Beta: 1}, runs, seed)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Utility != want {
		t.Fatalf("simulate over cached layouts = %v, over explicit layouts = %v", sim.Utility, want)
	}

	if code := getJSON(t, ts, "/metrics", &snap); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	// Each forward view holds the piece's live edges, as its reverse
	// layout does, so it is the same size.
	forward := reverseOnly
	if snap.Registry.LayoutBytes != reverseOnly+forward {
		t.Fatalf("layout_bytes = %d after a simulate, want %d + %d", snap.Registry.LayoutBytes, reverseOnly, forward)
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
	lay, err := s.reg.Layouts().Get(resident.Pieces[0].Dist)
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
